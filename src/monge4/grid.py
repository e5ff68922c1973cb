"""Grid sampling, range-data ingestion and CSV import/export.

sample_grid evaluates the exact-jet pipeline on a uniform grid.  For
externally sampled data (a depth map with one or two height channels)
ingest_samples validates the rectangle and evaluate_discrete estimates
jets with second-order central differences on interior nodes; the
boundary ring and any node with a corrupt stencil are flagged rather
than dropped, so a result always carries nu*nv rows in a deterministic
order (v fastest).  grid_rows and discrete_rows yield the same rows one
at a time, so a caller that streams them never holds the whole grid.
Samples stay packed 8-byte doubles (array('d')) from the CSV read to the
stencil: read_samples_csv keeps one array per column and a
DiscretePatch one array per grid row and channel.  ingest_samples makes
no copy of its own: it reads the records in place, once per check, and
reads a one-shot iterator into a list first.
"""

from __future__ import annotations

import csv
import math
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

# rows per write: export holds one chunk of text, never the whole table
CHUNK_ROWS = 1024


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


@dataclass(frozen=True)
class DiscretePatch:
    """Sampled heights on a uniform grid, one or two channels."""

    u0: float
    v0: float
    hu: float
    hv: float
    nu: int
    nv: int
    f: list  # nu rows, each an array('d') of nv samples: f[i][j]
    g: list  # the same shape; all 0.0 in monge3 mode
    mode: str = "monge4"
    source: str = "<memory>"

    def spec(self) -> GridSpec:
        return GridSpec(self.u0, self.u0 + (self.nu - 1) * self.hu,
                        self.v0, self.v0 + (self.nv - 1) * self.hv,
                        self.nu, self.nv)


def sample_values(patch: MongePatch, spec: GridSpec, mode: str = "monge4") -> DiscretePatch:
    """Discretize a patch to height samples only (no jets)."""
    f = [_doubles([0.0]) * spec.nv for _ in range(spec.nu)]
    g = [_doubles([0.0]) * spec.nv for _ in range(spec.nu)]
    for i, j, u, v in spec.points():
        floats = jet_floats(patch, u, v)
        f[i][j], g[i][j] = floats[0], floats[6]
    return DiscretePatch(spec.u0, spec.v0, spec.hu, spec.hv, spec.nu, spec.nv,
                         f, g, mode=mode)


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
    if not (1 <= i <= dp.nu - 2 and 1 <= j <= dp.nv - 2):
        raise ValueError(f"node ({i}, {j}) is not interior")
    return PatchJets(_new(Jet2, _stencil(dp.f, i, j, dp.hu, dp.hv)),
                     _new(Jet2, _stencil(dp.g, i, j, dp.hu, dp.hv)))


def discrete_rows(dp: DiscretePatch):
    """Yield the row of every node in order; the boundary ring is flagged."""
    f, g, hu, hv = dp.f, dp.g, dp.hu, dp.hv
    for i, j, u, v in dp.spec().points():
        if not (1 <= i <= dp.nu - 2 and 1 <= j <= dp.nv - 2):
            yield Row(u, v, flag="boundary")
            continue
        try:
            row = _row(u, v, _stencil(f, i, j, hu, hv)
                       + _stencil(g, i, j, hu, hv))
        except jet.DomainError as err:
            row = Row(u, v, flag=f"domain-error: {err}")
        except ValueError as err:  # _stencil: a non-finite sample
            row = Row(u, v, flag=f"bad-sample: {err}")
        yield row


def evaluate_discrete(dp: DiscretePatch) -> GridResult:
    """Run the pipeline over interior nodes; boundary ring is flagged."""
    return GridResult(dp.spec(), list(discrete_rows(dp)))


def _uniform_axis(values, name: str):
    axis = set(values)
    bad = sorted(repr(x) for x in axis if not math.isfinite(x))
    if bad:  # sorted reprs: NaN hashes by identity, so set order varies
        raise ValueError(f"non-finite {name} coordinate {bad[0]}")
    axis = sorted(axis)
    if len(axis) < 2:
        raise ValueError(f"need at least 2 distinct {name} values")
    h = (axis[-1] - axis[0]) / (len(axis) - 1)
    # an inf h passes every step test below; the far edge that the patch
    # rebuilds from h must be finite too
    if not math.isfinite(axis[0] + (len(axis) - 1) * h):
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
    return axis, h


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
    if mode is None:
        mode = inferred
    elif mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    elif mode != inferred:
        raise ValueError(f"records have {inferred} shape, not {mode}")

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
    g = [_doubles([0.0]) * nv for _ in range(nu)]
    seen = bytearray(nu * nv)  # node (i, j) at i*nv + j
    with_g = mode == "monge4"
    for r in records:
        i, j = iu[r[0]], iv[r[1]]
        k = i * nv + j
        if seen[k]:
            raise ValueError(f"duplicate sample at node {(i, j)}")
        seen[k] = 1
        f[i][j] = r[2]
        if with_g:
            g[i][j] = r[3]
    if 0 in seen:
        missing = [divmod(k, nv) for k, hit in enumerate(seen) if not hit]
        raise ValueError(f"incomplete grid, missing nodes {missing[:8]}"
                         + ("..." if len(missing) > 8 else ""))
    return DiscretePatch(float(us[0]), float(vs[0]), h_u, h_v, nu, nv, f, g,
                         mode=mode, source=source)


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
    """Write a string, or an iterable of strings, to a file object or to
    a path without newline translation."""
    chunks = (text,) if isinstance(text, str) else text
    if hasattr(destination, "write"):
        destination.writelines(chunks)
        return
    with open(destination, "w", newline="") as fh:
        fh.writelines(chunks)


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


def csv_text(header, rows) -> str:
    """The whole table as one string, for the small CLI tables."""
    return "".join(_csv_chunks(header, rows))


def export_csv(result: GridResult, destination) -> None:
    """Write the result table, one row per node."""
    write_text(destination, _csv_chunks(RESULT_HEADER, result.rows))


def export_samples_csv(dp: DiscretePatch, destination) -> None:
    """Write height samples back out in the input format."""
    header = ("u", "v", "f", "g") if dp.mode == "monge4" else ("u", "v", "f")
    rows = ((u, v, dp.f[i][j], dp.g[i][j])[:len(header)]
            for i, j, u, v in dp.spec().points())
    write_text(destination, _csv_chunks(header, rows))


__all__ = [
    "DiscretePatch", "GridResult", "GridSpec", "MODES", "RESULT_HEADER",
    "Row", "csv_text", "discrete_rows", "evaluate_discrete", "export_csv",
    "export_samples_csv", "fd_jets", "grid_rows", "ingest_csv", "ingest_samples",
    "SampleRecords", "read_samples_csv", "sample_grid", "sample_values",
    "write_text",
]
