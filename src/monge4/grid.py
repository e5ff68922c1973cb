"""Grid sampling, range-data ingestion, CSV import and table output.

sample_grid evaluates the exact-jet pipeline on a uniform grid.  For
externally sampled data (a depth map with one or two height channels)
ingest_samples validates the rectangle into a DiscretePatch, which holds
the sorted sample coordinates of each axis and, packed as 8-byte doubles
(array('d')), one row of samples per u coordinate and channel.
evaluate_discrete estimates jets with second-order central differences
on interior nodes; the boundary ring and any node with a corrupt stencil
are flagged rather than dropped, so a result always carries one row per
node, at the node's own coordinates, in a deterministic order (v
fastest).  grid_rows and discrete_rows yield the same rows one at a
time, so a caller that streams them never holds the whole grid.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from . import jet
from .classify import chen_wintgen
from .invariants import point_kernel
from .jet import Jet2, _new
from .patch import MongePatch, PatchJets, jet_floats

SPACING_RTOL = 1e-9

MODES = ("monge4", "monge3")

FLAT_JET = (0.0,) * 6  # a missing g channel: _stencil of nine 0.0 samples

# rows per write: export holds one chunk of text, never the whole table
CHUNK_ROWS = 1024

# rows per encoder call in JSON output: enough to spread the encoder's
# per-call set-up (one call per row made a 201x201 grid about 0.5 s
# slower), few enough that the pieces it joins stay small
JSON_ROWS = 64


@dataclass(frozen=True)
class GridSpec:
    u0: float
    u1: float
    v0: float
    v1: float
    nu: int
    nv: int

    def __post_init__(self):
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

    def points(self):
        for i in range(self.nu):
            u = self.u_at(i)
            for j in range(self.nv):
                yield i, j, u, self.v_at(j)


class Row(NamedTuple):
    u: float
    v: float
    E: float = math.nan
    F: float = math.nan
    G: float = math.nan
    W2: float = math.nan
    K: float = math.nan
    KN: float = math.nan
    H1: float = math.nan
    H2: float = math.nan
    Hnorm: float = math.nan
    chen: float = math.nan
    wintgen: float = math.nan
    flag: str = ""


# a Row is written as is: its fields are the columns of the result table
RESULT_HEADER = Row._fields


@dataclass(frozen=True)
class GridResult:
    spec: GridSpec
    rows: list = field(repr=False)


def _row(u: float, v: float, floats) -> Row:
    """The result row of the twelve jet floats at (u, v)."""
    ff, _, sf, inv = point_kernel(*floats)
    return Row(u, v, ff.E, ff.F, ff.G, ff.W2, inv.K, inv.KN,
               inv.H1, inv.H2, inv.Hnorm, *chen_wintgen(sf, inv))


def _sample_point(patch: MongePatch, u: float, v: float) -> Row:
    try:
        return _row(u, v, jet_floats(patch, u, v))
    except jet.DomainError as err:
        return Row(u, v, flag=f"domain-error: {err}")


def grid_rows(patch: MongePatch, spec: GridSpec):
    """Yield the result row of every node in order; failures become flags."""
    for _, _, u, v in spec.points():
        yield _sample_point(patch, u, v)


def sample_grid(patch: MongePatch, spec: GridSpec) -> GridResult:
    """Evaluate the full pipeline at every node; failures become flags."""
    return GridResult(spec, list(grid_rows(patch, spec)))


def _doubles(values=()):
    """A packed array('d') of 8-byte doubles.  The array extension loads
    on first use, so commands that hold no samples do not map it (about
    0.1 MB of peak RSS)."""
    from array import array
    return array("d", values)


def _step(axis) -> float:
    """The spacing of sorted uniform coordinates, as GridSpec.hu has it."""
    return (axis[-1] - axis[0]) / (len(axis) - 1)


@dataclass(frozen=True)
class DiscretePatch:
    """Samples of one or two height channels at sorted coordinates us x vs."""

    us: tuple
    vs: tuple
    f: list  # len(us) rows, each an array('d') of len(vs) samples: f[i][j]
    g: list | None = None  # the same shape; None for a one-channel depth map
    source: str = "<memory>"

    def spec(self) -> GridSpec:
        us, vs = self.us, self.vs
        return GridSpec(us[0], us[-1], vs[0], vs[-1], len(us), len(vs))


def sample_values(patch: MongePatch, spec: GridSpec, mode: str = "monge4") -> DiscretePatch:
    """Discretize a patch to height samples only (no jets); monge3 keeps f."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    f = [_doubles([0.0]) * spec.nv for _ in range(spec.nu)]
    g = [_doubles([0.0]) * spec.nv for _ in range(spec.nu)]
    for i, j, u, v in spec.points():
        floats = jet_floats(patch, u, v)
        f[i][j], g[i][j] = floats[0], floats[6]
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


def fd_jets(dp: DiscretePatch, i: int, j: int) -> PatchJets:
    """Second-order central-difference jets at an interior node."""
    if not (1 <= i <= len(dp.us) - 2 and 1 <= j <= len(dp.vs) - 2):
        raise ValueError(f"node ({i}, {j}) is not interior")
    hu, hv = _step(dp.us), _step(dp.vs)
    g = FLAT_JET if dp.g is None else _stencil(dp.g, i, j, hu, hv)
    return PatchJets(_new(Jet2, _stencil(dp.f, i, j, hu, hv)), _new(Jet2, g))


def discrete_rows(dp: DiscretePatch):
    """Yield the row of every node in order; the boundary ring is flagged."""
    spec = dp.spec()  # also checks the axes of a patch built by hand
    f, g, hu, hv = dp.f, dp.g, spec.hu, spec.hv
    last_i, last_j = spec.nu - 1, spec.nv - 1
    for i, u in enumerate(dp.us):
        for j, v in enumerate(dp.vs):
            if not (0 < i < last_i and 0 < j < last_j):
                yield Row(u, v, flag="boundary")
                continue
            try:
                gj = FLAT_JET if g is None else _stencil(g, i, j, hu, hv)
                row = _row(u, v, _stencil(f, i, j, hu, hv) + gj)
            except jet.DomainError as err:
                row = Row(u, v, flag=f"domain-error: {err}")
            except ValueError as err:  # _stencil: a non-finite sample
                row = Row(u, v, flag=f"bad-sample: {err}")
            yield row


def evaluate_discrete(dp: DiscretePatch) -> GridResult:
    """Run the pipeline over interior nodes; boundary ring is flagged."""
    return GridResult(dp.spec(), list(discrete_rows(dp)))


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


def _csv_chunks(header, rows):
    """A CSV table in strings of up to CHUNK_ROWS lines: floats as
    shortest round-trip decimals, text quoted."""
    yield ",".join(header) + "\n"
    lines = (",".join(_text_cell(c) if isinstance(c, str) else repr(c)
                      for c in row) + "\n" for row in rows)
    while chunk := "".join(islice(lines, CHUNK_ROWS)):
        yield chunk


def _json_chunks(header, rows):
    """A table of floats, strings and bools as the text of
    json.dumps(table, indent=2), JSON_ROWS row objects at a time: each
    batch is encoded as a list, without its opening and closing lines."""
    encode = json.JSONEncoder(indent=2).encode
    docs = ({name: cell if isinstance(cell, str) or math.isfinite(cell)
             else None for name, cell in zip(header, row)} for row in rows)
    sep = "[\n"
    while batch := list(islice(docs, JSON_ROWS)):
        yield sep + encode(batch)[2:-2]
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def export_csv(result: GridResult, destination) -> None:
    """Write the result table, one row per node."""
    write_text(destination, _csv_chunks(RESULT_HEADER, result.rows))


def export_samples_csv(dp: DiscretePatch, destination) -> None:
    """Write height samples back out in the input format."""
    channels = (dp.f,) if dp.g is None else (dp.f, dp.g)
    header = ("u", "v", "f", "g")[:2 + len(channels)]
    rows = ((u, v, *(z[i][j] for z in channels))
            for i, u in enumerate(dp.us) for j, v in enumerate(dp.vs))
    write_text(destination, _csv_chunks(header, rows))


__all__ = [
    "DiscretePatch", "GridResult", "GridSpec", "MODES", "RESULT_HEADER",
    "Row", "discrete_rows", "evaluate_discrete", "export_csv",
    "export_samples_csv", "fd_jets", "grid_rows", "ingest_csv", "ingest_samples",
    "SampleRecords", "read_samples_csv", "sample_grid", "sample_values",
    "write_text",
]
