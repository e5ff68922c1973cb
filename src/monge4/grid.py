"""Grid sampling, range-data ingestion, CSV import and table output.

Every node goes through one body, classify.node_rows, fed by one of two
node sources of nodes start to stop - 1 of a grid, which GridSpec.spans
walks row by row: classify.exact_jets(patch, spec, start, stop), a
patch's jets, or sampled_jets(dp, start, stop), the stencils of a
DiscretePatch, which ingest_samples validates from a depth map of one or
two height channels, held as one array('d') row per u coordinate and
channel.  rows makes the table rows of any node source one at a time, so
a stream never holds the whole grid: the body's Rows, where a node
without values (the boundary ring, a corrupt stencil, a domain error) is
flagged rather than dropped, one row per node at its own coordinates.
sample_grid and evaluate_discrete cover every node; chunk_pieces cuts
the nodes into chunks and shares them among forked processes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
from itertools import islice
from operator import itemgetter

from .classify import Row, exact_jets, node_rows
from .invariants import ConsistencyError
from .jet import Jet2, _new
from .patch import MongePatch, PatchJets
from .record import Record

SPACING_RTOL = 1e-9

MODES = ("monge4", "monge3")

FLAT_JET = (0.0,) * 6  # a missing g channel: _stencil of nine 0.0 samples

# rows per write: export holds one chunk of text, never the whole table
CHUNK_ROWS = 1024

# rows per encoder call in JSON output: enough to spread the encoder's
# per-call set-up (one call per row made a 201x201 grid about 0.5 s
# slower), few enough that the pieces it joins stay small
JSON_ROWS = 64


class GridSpec(Record):
    __slots__ = ("u0", "u1", "v0", "v1", "nu", "nv")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.nu < 2 or self.nv < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if not all(map(math.isfinite, (self.u0, self.u1, self.v0, self.v1))):
            raise ValueError("grid bounds must be finite")
        if not (self.u0 < self.u1 and self.v0 < self.v1):
            raise ValueError("grid bounds must be increasing")

    @property
    def hu(self) -> float:
        return (self.u1 - self.u0) / (self.nu - 1)

    @property
    def hv(self) -> float:
        return (self.v1 - self.v0) / (self.nv - 1)

    def u_at(self, i: int) -> float:
        # blend instead of u0 + i*hu so the last node is exactly u1
        t = i / (self.nu - 1)
        return self.u0 * (1.0 - t) + self.u1 * t

    def v_at(self, j: int) -> float:
        t = j / (self.nv - 1)
        return self.v0 * (1.0 - t) + self.v1 * t

    def spans(self, start: int, stop: int):
        """(i, js) of each row i that nodes start to stop - 1 meet, in node
        order: js is the range of their columns j, node k is divmod(k, nv)."""
        nv = self.nv
        for i in range(start // nv, -(-stop // nv) if start < stop else 0):
            yield i, range(max(start - i * nv, 0), min(stop - i * nv, nv))


# a Row is written as is: its fields are the columns of the result table
RESULT_HEADER = Row._fields
_row_of = itemgetter(0)  # the table row consumer of the body's (Row, form)


class GridResult(Record):
    __slots__ = ("spec", "rows")  # rows: a list of Row
    _unshown = ("rows",)


def rows(source):
    """The result row of each (u, v, jets) of a node source, in its order:
    the Rows of the body; failures become flags."""
    return map(_row_of, node_rows(source))


def sample_grid(patch: MongePatch, spec: GridSpec) -> GridResult:
    """Evaluate the full pipeline at every node; failures become flags."""
    nodes = spec.nu * spec.nv
    return GridResult(spec, list(rows(exact_jets(patch, spec, 0, nodes))))


def _doubles(values=()):
    """A packed array('d') of 8-byte doubles.  The array extension loads
    on first use, so commands that hold no samples do not map it (about
    0.1 MB of peak RSS)."""
    from array import array
    return array("d", values)


def _step(axis) -> float:
    """The spacing of sorted uniform coordinates, as GridSpec.hu has it."""
    return (axis[-1] - axis[0]) / (len(axis) - 1)


class DiscretePatch(Record):
    """Samples of one or two height channels at sorted coordinates us x vs:
    f holds len(us) rows, each an array('d') of len(vs) samples, f[i][j];
    g has the same shape, or is None for a one-channel depth map."""

    __slots__ = ("us", "vs", "f", "g", "source")
    _defaults = {"g": None, "source": "<memory>"}

    def spec(self) -> GridSpec:
        us, vs = self.us, self.vs
        return GridSpec(us[0], us[-1], vs[0], vs[-1], len(us), len(vs))


def sample_values(patch: MongePatch, spec: GridSpec, mode: str = "monge4") -> DiscretePatch:
    """Discretize a patch to height samples only (no jets); monge3 keeps f.
    A node of the exact source without jets raises its DomainError."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    f = [_doubles() for _ in range(spec.nu)]
    g = [_doubles() for _ in range(spec.nu)]
    nodes = spec.nu * spec.nv
    for k, (_, _, jets) in enumerate(exact_jets(patch, spec, 0, nodes)):
        if jets.__class__ is not tuple:
            raise jets
        f[k // spec.nv].append(jets[0])
        g[k // spec.nv].append(jets[6])
    return DiscretePatch(tuple(map(spec.u_at, range(spec.nu))),
                         tuple(map(spec.v_at, range(spec.nv))),
                         f, g if mode == "monge4" else None)


def _stencil(z, i: int, j: int, hu: float, hv: float) -> tuple:
    """The six jet floats of the samples z at interior node (i, j), by
    second-order central differences; a ValueError if any of the nine
    samples around the node is not finite."""
    # zab is the sample at (i + a, j + b), with m for -1 and p for +1
    lo, mid, hi = z[i - 1], z[i], z[i + 1]
    zmm, zm0, zmp = lo[j - 1], lo[j], lo[j + 1]
    z0m, z00, z0p = mid[j - 1], mid[j], mid[j + 1]
    zpm, zp0, zpp = hi[j - 1], hi[j], hi[j + 1]
    # a non-finite sample makes the sum non-finite; finite samples can
    # overflow it too, so only then are they tested one by one
    if (not math.isfinite(zmm + zm0 + zmp + z0m + z00 + z0p + zpm + zp0 + zpp)
            and not all(map(math.isfinite, (zmm, zm0, zmp, z0m, z00, z0p,
                                            zpm, zp0, zpp)))):
        raise ValueError(f"non-finite sample near node ({i}, {j})")
    du = (zp0 - zm0) / (2 * hu)
    dv = (z0p - z0m) / (2 * hv)
    duu = (zp0 - 2 * z00 + zm0) / hu**2
    dvv = (z0p - 2 * z00 + z0m) / hv**2
    duv = (zpp - zpm - zmp + zmm) / (4 * hu * hv)
    return z00, du, dv, duu, duv, dvv


def _fd_floats(dp: DiscretePatch, i: int, j: int, hu: float, hv: float):
    """The twelve jet floats of the stencils of dp at interior node (i, j)."""
    g = FLAT_JET if dp.g is None else _stencil(dp.g, i, j, hu, hv)
    return _stencil(dp.f, i, j, hu, hv) + g


def fd_jets(dp: DiscretePatch, i: int, j: int) -> PatchJets:
    """Second-order central-difference jets at an interior node."""
    if not (1 <= i <= len(dp.us) - 2 and 1 <= j <= len(dp.vs) - 2):
        raise ValueError(f"node ({i}, {j}) is not interior")
    floats = _fd_floats(dp, i, j, _step(dp.us), _step(dp.vs))
    return PatchJets(_new(Jet2, floats[:6]), _new(Jet2, floats[6:]))


def sampled_jets(dp: DiscretePatch, start: int, stop: int):
    """The sampled node source: (u, v, jets) of nodes start to stop - 1 of
    dp.spec(), in node order, the jets being the stencils' floats, or the
    flag boundary or bad-sample.  u and v are dp's own coordinates."""
    spec = dp.spec()  # also checks the axes of a patch built by hand
    hu, hv, last_i, last_j = spec.hu, spec.hv, spec.nu - 1, spec.nv - 1
    for i, js in spec.spans(start, stop):
        u = dp.us[i]
        for j in js:
            if not (0 < i < last_i and 0 < j < last_j):
                jets = "boundary"
            else:
                try:
                    jets = _fd_floats(dp, i, j, hu, hv)
                except ValueError as err:
                    jets = f"bad-sample: {err}"
            yield u, dp.vs[j], jets


def evaluate_discrete(dp: DiscretePatch) -> GridResult:
    """Run the pipeline over interior nodes; boundary ring is flagged."""
    nodes = len(dp.us) * len(dp.vs)
    return GridResult(dp.spec(), list(rows(sampled_jets(dp, 0, nodes))))


def _uniform_axis(values, name: str):
    axis = {x + 0.0 for x in values}  # floats; -0.0 as 0.0, in any order
    bad = sorted(repr(x) for x in axis if not math.isfinite(x))
    if bad:  # sorted reprs: NaN hashes by identity, so set order varies
        raise ValueError(f"non-finite {name} coordinate {bad[0]}")
    axis = sorted(axis)
    if len(axis) < 2:
        raise ValueError(f"need at least 2 distinct {name} values")
    h = _step(axis)
    if not math.isfinite(h):  # an inf h passes every step test below
        raise ValueError(f"{name} span from {axis[0]!r} to {axis[-1]!r} overflows")
    for a, b in zip(axis, axis[1:]):
        if abs(b - a - h) > SPACING_RTOL * max(abs(h), 1.0):
            raise ValueError(f"non-uniform {name} spacing near {name}={b!r}: "
                             f"step {b - a!r} vs expected {h!r}")
    # _stencil divides by h**2: float ** raises OverflowError, or gives 0
    try:
        in_range = h**2 > 0.0
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValueError(f"{name} spacing {h!r} is out of range "
                         "for the difference stencil")
    return tuple(axis), h


def ingest_samples(records, hu: float | None = None, hv: float | None = None,
                   mode: str | None = None, source: str = "<memory>") -> DiscretePatch:
    """Assemble (u, v, f[, g]) records into a validated DiscretePatch.

    Records may arrive in any order.  They are read in place, once per
    check, so a one-shot iterator is first read into a list.  The
    rectangle must be complete; spacing is inferred and checked for
    uniformity, and any hu/hv passed in must match the inferred values.
    """
    if iter(records) is records:
        records = list(records)
    widths = {len(r) for r in records}
    if not widths:
        raise ValueError("no sample records")
    if widths not in ({3}, {4}):
        raise ValueError("records must be uniformly (u, v, f) or (u, v, f, g)")
    inferred = "monge4" if widths == {4} else "monge3"
    if mode not in (None, inferred):
        raise ValueError(f"unknown mode {mode!r}" if mode not in MODES else
                         f"records have {inferred} shape, not {mode}")

    us, h_u = _uniform_axis((r[0] for r in records), "u")
    vs, h_v = _uniform_axis((r[1] for r in records), "v")
    for given, inferred_h, name in ((hu, h_u, "hu"), (hv, h_v, "hv")):
        tol = SPACING_RTOL * max(abs(inferred_h), 1.0)
        # not (gap <= tol), so that a NaN spacing fails too
        if given is not None and not abs(given - inferred_h) <= tol:
            raise ValueError(f"{name}={given!r} does not match inferred {inferred_h!r}")

    iu = {u: i for i, u in enumerate(us)}
    iv = {v: j for j, v in enumerate(vs)}
    nu, nv = len(us), len(vs)
    f = [_doubles([math.nan]) * nv for _ in range(nu)]
    g = [_doubles([math.nan]) * nv for _ in range(nu)] if widths == {4} else None
    seen = bytearray(nu * nv)  # node (i, j) at i*nv + j
    for r in records:
        i, j = iu[r[0]], iv[r[1]]
        k = i * nv + j
        if seen[k]:
            raise ValueError(f"duplicate sample at node {(i, j)}")
        seen[k] = 1
        f[i][j] = r[2]
        if g is not None:
            g[i][j] = r[3]
    if 0 in seen:
        missing = [divmod(k, nv) for k, hit in enumerate(seen) if not hit]
        raise ValueError(f"incomplete grid, missing nodes {missing[:8]}"
                         + ("..." if len(missing) > 8 else ""))
    return DiscretePatch(us, vs, f, g, source)


class SampleRecords:
    """The records of a samples file, held as one array('d') per column.

    len() counts the records; iterating yields each record as a
    (u, v, f[, g]) tuple of floats, one at a time.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns):
        self._columns = tuple(columns)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        return zip(*self._columns)


def read_samples_csv(path) -> SampleRecords:
    """Parse an input CSV with header u,v,f[,g] into numeric records."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty samples file") from None
        header = [h.strip() for h in header]
        if header not in (["u", "v", "f"], ["u", "v", "f", "g"]):
            raise ValueError(f"unexpected header {header!r}, "
                             "want u,v,f or u,v,f,g")
        columns = [_doubles() for _ in header]
        appends = [column.append for column in columns]
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(f"row {lineno}: expected {len(header)} cells")
            try:
                for append, cell in zip(appends, cells):
                    append(float(cell))
            except ValueError:
                raise ValueError(f"row {lineno}: non-numeric cell") from None
    return SampleRecords(columns)


def ingest_csv(path, mode: str | None = None) -> DiscretePatch:
    return ingest_samples(read_samples_csv(path), mode=mode, source=str(path))


def write_text(destination, text) -> None:
    """Write a string, or an iterable of strings, without newline
    translation: to a file object in place, or to the file at a path so
    that it changes only if all of it is written, as a new file beside
    it that replaces it, with the mode a plain open(path, "w") leaves.

    A path that exists but is not a regular file (a device, a pipe) is
    written in place, and so is one whose directory takes no new file.
    If open() fails there, the strings are still made first, so that an
    evaluation error is reported ahead of the I/O error.
    """
    chunks = (text,) if isinstance(text, str) else text
    if hasattr(destination, "write"):
        destination.writelines(chunks)
        return
    target = os.path.realpath(destination)
    try:
        old = os.stat(target)
    except OSError:
        old = None
    tmp = os.path.join(os.path.dirname(target),
                       f".{os.path.basename(target)}.{os.getpid()}.tmp")
    fd = None
    if old is None or stat.S_ISREG(old.st_mode):
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            pass
    if fd is None:
        try:
            fh = open(destination, "w", newline="")
        except OSError:
            for _ in chunks:
                pass
            raise
        with fh:
            fh.writelines(chunks)
        return
    try:
        with open(fd, "w", newline="") as fh:
            if old is not None:
                os.chmod(tmp, stat.S_IMODE(old.st_mode))
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _text_cell(text: str) -> str:
    # flags and check details may contain commas; quote per the usual rules
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell_lines(rows):
    """The CSV lines of rows of any shape, one cell at a time: str cells
    quoted as needed, any other cell as its repr."""
    return "".join(",".join(_text_cell(c) if isinstance(c, str) else repr(c)
                            for c in row) + "\n" for row in rows)


# a result line: the text of u and of v, each with its comma, the eleven
# values (repr, as _cell_lines writes them) and the flag as _text_cell has it
_RESULT_LINE = "%s%s" + "%r," * 11 + "%s\n"


def _result_lines(rows):
    """The CSV lines of Rows (RESULT_HEADER: floats, then a str flag), as
    _cell_lines writes them, with one format per line.  The text of u is
    made once per u object and of v once per v object, keyed by identity,
    not by value: 0.0 == -0.0, but their text differs.  Each v is held
    while its id is a key, so that no other object can take that id."""
    u_of = u_text = None
    v_texts = {}  # id(v): the text of v and its comma
    held = []  # the v objects whose ids key v_texts
    lines = []
    for u, v, E, F, G, W2, K, KN, H1, H2, Hnorm, chen, wintgen, flag in rows:
        if u is not u_of:
            u_of, u_text = u, repr(u) + ","
        v_text = v_texts.get(id(v))
        if v_text is None:
            v_text = v_texts[id(v)] = repr(v) + ","
            held.append(v)
        lines.append(_RESULT_LINE % (u_text, v_text, E, F, G, W2, K, KN, H1,
                                     H2, Hnorm, chen, wintgen,
                                     _text_cell(flag) if flag else flag))
    return "".join(lines)


def _row_pieces(fmt: str, header, rows):
    """The text of some rows of a table in fmt, in pieces.  "csv": lines
    of floats as shortest round-trip decimals and quoted text, CHUNK_ROWS
    at a time.  "json": row objects of floats, strings and bools as in
    json.dumps(table, indent=2), JSON_ROWS at a time; each batch is
    encoded as a list, without its opening and closing lines, and comes
    after ",\n"."""
    rows = iter(rows)
    if fmt == "csv":
        lines = _result_lines if header is RESULT_HEADER else _cell_lines
        while chunk := lines(islice(rows, CHUNK_ROWS)):
            yield chunk
        return
    encode = json.JSONEncoder(indent=2).encode
    docs = ({name: cell if isinstance(cell, str) or math.isfinite(cell)
             else None for name, cell in zip(header, row)} for row in rows)
    while batch := list(islice(docs, JSON_ROWS)):
        yield ",\n" + encode(batch)[2:-2]


def _table_pieces(fmt: str, header, body):
    """The text of a table in fmt ("csv" or "json") around body, the
    pieces of its rows as _row_pieces makes them: the header line and the
    rows, or the rows as json.dumps(table, indent=2) writes them."""
    if fmt == "csv":
        yield ",".join(header) + "\n"
        yield from body
        return
    body = iter(body)
    first = next(body, None)
    if first is None:
        yield "[]\n"
        return
    yield "[\n" + first[2:]
    yield from body
    yield "\n]\n"


def _table_chunks(fmt: str, header, rows):
    """A whole table in fmt, in pieces."""
    return _table_pieces(fmt, header, _row_pieces(fmt, header, rows))


def cores() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


# the frames of a worker's pipe: kind, payload size (8 bytes, little
# endian) and payload.  Text (a whole chunk, or the worker's report after
# its last chunk), or an error that took the place of a chunk.
_TEXT, _ERROR = b"T", b"E"


def _send(fd: int, kind: bytes, text: str) -> None:
    payload = text.encode("utf-8", "surrogatepass")
    frame = memoryview(kind + len(payload).to_bytes(8, "little") + payload)
    while frame:
        frame = frame[os.write(fd, frame):]


def _read(fd: int, size: int) -> bytes:
    parts = []
    while size:
        part = os.read(fd, size)
        if not part:
            raise ChildProcessError(
                "a chunk worker ended before its last chunk")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _receive(fd: int) -> str:
    """The text of the next frame on fd; an error frame is raised: a
    ConsistencyError as itself, which evaluation raises, and any other
    error as a failed worker."""
    head = _read(fd, 9)
    text = _read(fd, int.from_bytes(head[1:], "little")).decode(
        "utf-8", "surrogatepass")
    if head[:1] == _ERROR:
        name, _, message = text.partition("\n")
        if name == ConsistencyError.__name__:
            raise ConsistencyError(message)
        raise ChildProcessError(f"a chunk worker failed: {name}: {message}")
    return text


def _serve(fd: int, chunks, render, report) -> None:
    """A worker's run: each of its chunks (start, stop) as one text frame,
    which a pipe of PIPE_BYTES takes without waiting for the parent to
    read, then its report; an error is sent in place of its chunk."""
    try:
        for start, stop in chunks:
            _send(fd, _TEXT, render(start, stop))
        _send(fd, _TEXT, report())
    except Exception as err:  # sent to the parent, which raises it in order
        _send(fd, _ERROR, f"{type(err).__name__}\n{err}")


# the size asked of a worker's pipe: a CSV chunk (about 250 KB) or a JSON
# chunk (about 430 KB) fits whole, so a worker sends it in one write and
# goes on to its next chunk while the parent makes its own.  1 MiB is
# Linux's default limit for an unprivileged process (pipe-max-size).
PIPE_BYTES = 1 << 20


def _fork(chunks, render, report, children):
    """A child that makes the chunks (start, stop) and sends them through
    a new pipe: its pid and the pipe's read end."""
    r, w = os.pipe()
    try:  # fcntl is loaded here, so a command that never forks skips it
        import fcntl
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass  # no such request here, or refused: the default size
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:  # never returns: its caller's frames belong to the parent
            os.close(r)
            for _, fd in children:
                os.close(fd)
            _serve(w, chunks, render, report)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _end(children) -> None:
    """Close the pipes of the children and reap them.  A child ends at
    its next write to its closed pipe, so none is signalled: the pid of
    one that the kernel reaped already, in a process that ignores
    SIGCHLD, may belong to another process by now."""
    for _, fd in children:
        os.close(fd)
    for pid, _ in children:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # reaped already: this process ignores SIGCHLD
    children.clear()


def chunk_pieces(nodes: int, render, state):
    """Yield the text of nodes 0 to nodes - 1 in chunks of CHUNK_ROWS,
    each whole: render(start, stop), the text of nodes start to stop - 1.

    Chunk k is made by process k % jobs of jobs = min(cores(), chunks): 0
    is this one, and each other is a child forked here, which sends its
    chunks through its own pipe, then state.report(), the text of what
    render() kept in state; the parent passes it to state.merge().  An
    error in a child is raised when its chunk's turn comes, so the text is
    what one process yields.  Where no pipe or process can be made, this
    process makes every chunk.  On every way out, the children are reaped
    and every pipe is closed.
    """
    chunks = [(start, min(start + CHUNK_ROWS, nodes))
              for start in range(0, nodes, CHUNK_ROWS)]
    jobs = min(cores(), len(chunks))
    children = []  # (pid, read end of its pipe)
    try:
        try:
            for first in range(1, jobs):
                children.append(_fork(chunks[first::jobs], render,
                                      state.report, children))
        except OSError:
            _end(children)
            jobs = 1
        for k, (start, stop) in enumerate(chunks):
            yield (render(start, stop) if k % jobs == 0
                   else _receive(children[k % jobs - 1][1]))
        for _, fd in children:
            state.merge(_receive(fd))
    finally:
        _end(children)


def export_csv(result: GridResult, destination) -> None:
    """Write the result table, one row per node."""
    write_text(destination, _table_chunks("csv", RESULT_HEADER, result.rows))


def export_samples_csv(dp: DiscretePatch, destination) -> None:
    """Write height samples back out in the input format."""
    channels = (dp.f,) if dp.g is None else (dp.f, dp.g)
    header = ("u", "v", "f", "g")[:2 + len(channels)]
    rows = ((u, v, *(z[i][j] for z in channels))
            for i, u in enumerate(dp.us) for j, v in enumerate(dp.vs))
    write_text(destination, _table_chunks("csv", header, rows))


__all__ = [
    "DiscretePatch", "GridResult", "GridSpec", "MODES", "RESULT_HEADER",
    "Row", "chunk_pieces", "cores", "evaluate_discrete", "export_csv",
    "export_samples_csv", "fd_jets", "ingest_csv", "ingest_samples", "rows",
    "SampleRecords", "read_samples_csv", "sample_grid", "sample_values",
    "write_text",
]
