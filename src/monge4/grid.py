"""Grid sampling, range-data ingestion and CSV import/export.

sample_grid evaluates the exact-jet pipeline on a uniform grid.  For
externally sampled data (a depth map with one or two height channels)
ingest_samples validates the rectangle and evaluate_discrete estimates
jets with second-order central differences on interior nodes; the
boundary ring and any node with a corrupt stencil are flagged rather
than dropped, so a result always carries nu*nv rows in a deterministic
order (v fastest).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from . import jet
from .classify import chen_residual, wintgen_deficit
from .invariants import point_data, require_finite
from .patch import MongePatch, PatchJets, eval_patch

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


def _row_from_jets(u: float, v: float, jets: PatchJets) -> Row:
    pd = point_data(jets)
    ff, inv = pd.first, pd.inv
    try:
        chen, wintgen = chen_residual(pd.second), wintgen_deficit(inv)
    except OverflowError:
        raise jet.DomainError("predicate residuals overflowed") from None
    require_finite("predicate residuals", (chen, wintgen))
    return Row(u, v, ff.E, ff.F, ff.G, ff.W2, inv.K, inv.KN,
               inv.H1, inv.H2, inv.Hnorm, chen, wintgen)


def _sample_point(patch: MongePatch, u: float, v: float) -> Row:
    try:
        return _row_from_jets(u, v, eval_patch(patch, u, v))
    except jet.DomainError as err:
        return Row(u, v, flag=f"domain-error: {err}")


def sample_grid(patch: MongePatch, spec: GridSpec) -> GridResult:
    """Evaluate the full pipeline at every node; failures become flags."""
    return GridResult(spec, [_sample_point(patch, u, v)
                             for _, _, u, v in spec.points()])


@dataclass(frozen=True)
class DiscretePatch:
    """Sampled heights on a uniform grid, one or two channels."""

    u0: float
    v0: float
    hu: float
    hv: float
    nu: int
    nv: int
    f: list  # nu rows of nv floats
    g: list
    mode: str = "monge4"
    source: str = "<memory>"

    def spec(self) -> GridSpec:
        return GridSpec(self.u0, self.u0 + (self.nu - 1) * self.hu,
                        self.v0, self.v0 + (self.nv - 1) * self.hv,
                        self.nu, self.nv)


def sample_values(patch: MongePatch, spec: GridSpec, mode: str = "monge4") -> DiscretePatch:
    """Discretize a patch to height samples only (no jets)."""
    f = [[0.0] * spec.nv for _ in range(spec.nu)]
    g = [[0.0] * spec.nv for _ in range(spec.nu)]
    for i, j, u, v in spec.points():
        jets = eval_patch(patch, u, v)
        f[i][j] = jets.f.val
        g[i][j] = jets.g.val
    return DiscretePatch(spec.u0, spec.v0, spec.hu, spec.hv, spec.nu, spec.nv,
                         f, g, mode=mode)


def fd_jets(dp: DiscretePatch, i: int, j: int) -> PatchJets:
    """Second-order central-difference jets at an interior node."""
    if not (1 <= i <= dp.nu - 2 and 1 <= j <= dp.nv - 2):
        raise ValueError(f"node ({i}, {j}) is not interior")

    def stencil(z):
        block = [z[i + a][j + b] for a in (-1, 0, 1) for b in (-1, 0, 1)]
        if not all(math.isfinite(x) for x in block):
            raise ValueError(f"non-finite sample near node ({i}, {j})")
        hu, hv = dp.hu, dp.hv
        val = z[i][j]
        du = (z[i + 1][j] - z[i - 1][j]) / (2 * hu)
        dv = (z[i][j + 1] - z[i][j - 1]) / (2 * hv)
        duu = (z[i + 1][j] - 2 * val + z[i - 1][j]) / hu**2
        dvv = (z[i][j + 1] - 2 * val + z[i][j - 1]) / hv**2
        duv = (z[i + 1][j + 1] - z[i + 1][j - 1]
               - z[i - 1][j + 1] + z[i - 1][j - 1]) / (4 * hu * hv)
        return jet.Jet2(val, du, dv, duu, duv, dvv)

    return PatchJets(f=stencil(dp.f), g=stencil(dp.g))


def evaluate_discrete(dp: DiscretePatch) -> GridResult:
    """Run the pipeline over interior nodes; boundary ring is flagged."""
    spec = dp.spec()
    rows = []
    for i, j, u, v in spec.points():
        if not (1 <= i <= dp.nu - 2 and 1 <= j <= dp.nv - 2):
            rows.append(Row(u, v, flag="boundary"))
            continue
        try:
            rows.append(_row_from_jets(u, v, fd_jets(dp, i, j)))
        except jet.DomainError as err:
            rows.append(Row(u, v, flag=f"domain-error: {err}"))
        except ValueError as err:  # fd_jets: a non-finite sample in the stencil
            rows.append(Row(u, v, flag=f"bad-sample: {err}"))
    return GridResult(spec, rows)


def _uniform_axis(values, name: str):
    axis = sorted(set(values))
    if len(axis) < 2:
        raise ValueError(f"need at least 2 distinct {name} values")
    steps = [b - a for a, b in zip(axis, axis[1:])]
    h = (axis[-1] - axis[0]) / (len(axis) - 1)
    for k, s in enumerate(steps):
        if abs(s - h) > SPACING_RTOL * max(abs(h), 1.0):
            raise ValueError(
                f"non-uniform {name} spacing near {name}={axis[k + 1]!r}: "
                f"step {s!r} vs expected {h!r}")
    return axis, h


def ingest_samples(records, hu: float | None = None, hv: float | None = None,
                   mode: str | None = None, source: str = "<memory>") -> DiscretePatch:
    """Assemble (u, v, f[, g]) records into a validated DiscretePatch.

    Records may arrive in any order.  The rectangle must be complete;
    spacing is inferred and checked for uniformity, and any hu/hv
    passed in must match the inferred values.
    """
    records = list(records)
    if not records:
        raise ValueError("no sample records")
    widths = {len(r) for r in records}
    if widths == {3}:
        inferred = "monge3"
    elif widths == {4}:
        inferred = "monge4"
    else:
        raise ValueError("records must be uniformly (u, v, f) or (u, v, f, g)")
    if mode is None:
        mode = inferred
    elif mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    elif mode != inferred:
        raise ValueError(f"records have {inferred} shape, not {mode}")

    us, h_u = _uniform_axis([r[0] for r in records], "u")
    vs, h_v = _uniform_axis([r[1] for r in records], "v")
    for given, inferred_h, name in ((hu, h_u, "hu"), (hv, h_v, "hv")):
        if given is not None and abs(given - inferred_h) > SPACING_RTOL * max(abs(inferred_h), 1.0):
            raise ValueError(f"{name}={given!r} does not match inferred {inferred_h!r}")

    iu = {u: i for i, u in enumerate(us)}
    iv = {v: j for j, v in enumerate(vs)}
    nu, nv = len(us), len(vs)
    f = [[math.nan] * nv for _ in range(nu)]
    g = [[0.0] * nv for _ in range(nu)]
    seen = set()
    for r in records:
        key = (iu[r[0]], iv[r[1]])
        if key in seen:
            raise ValueError(f"duplicate sample at node {key}")
        seen.add(key)
        f[key[0]][key[1]] = r[2]
        if mode == "monge4":
            g[key[0]][key[1]] = r[3]
    if len(seen) != nu * nv:
        missing = [(i, j) for i in range(nu) for j in range(nv)
                   if (i, j) not in seen]
        raise ValueError(f"incomplete grid, missing nodes {missing[:8]}"
                         + ("..." if len(missing) > 8 else ""))
    return DiscretePatch(us[0], vs[0], h_u, h_v, nu, nv, f, g,
                         mode=mode, source=source)


def read_samples_csv(path) -> list:
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
        records = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(f"row {lineno}: expected {len(header)} cells")
            try:
                records.append(tuple(float(c) for c in cells))
            except ValueError:
                raise ValueError(f"row {lineno}: non-numeric cell") from None
    return records


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
    "Row", "csv_text", "evaluate_discrete", "export_csv", "export_samples_csv",
    "fd_jets", "ingest_csv", "ingest_samples", "read_samples_csv", "sample_grid",
    "sample_values", "write_text",
]
