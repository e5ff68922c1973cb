"""The four benchmark workloads: seeded inputs, commands and output checks.

Each check returns the number of failed operations.  A grid workload's
operation is one node (one output row); a classify run's operations are
its grid nodes, all failed together when the report is wrong; a point
query is one `invariants_at` call.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import surfaces as S

RESULT_HEADER = ["u", "v", "E", "F", "G", "W2", "K", "KN", "H1", "H2",
                 "Hnorm", "chen", "wintgen", "flag"]

# full sizes; `tiny` shrinks every grid to TINY nodes per axis
SIZES = {"grid_explicit": 201, "classify_aminov": 151, "ingest_fd": 201,
         "point_queries": 20000}
TINY = {"grid_explicit": 9, "classify_aminov": 7, "ingest_fd": 13,
        "point_queries": 200}

HOLE_SHARE = 0.005
REF_TOL = 1e-9          # monge4 vs the hand-derived numpy reference
PIPELINE_TOL = 1e-12    # CSV rows vs invariants_at at the same node
CLOSED_FORM_TOL = 1e-10
SAMPLE_ROWS = 256
# |K_fd - K| <= FD_CONST * h^2 * (1 + |K|), likewise for K_N.  The largest
# constant measured on hole-free samples is 2.7 (seeds 0-49 at h = 1/6 and
# h = 1/25, seeds 0-3 at h = 1/100), so the bound has a margin of about 4.
FD_CONST = 10.0

# classify_aminov: a rotational surface satisfies chen everywhere, and the
# profile a u^2 + r0 with r0 > a is neither minimal nor K + K_N = 0
EXPECTED_VERDICTS = {"minimal": "fails", "chen": "holds",
                     "wintgen_ideal": "fails", "pseudo_umbilical": "fails",
                     "flat": "fails", "k_plus_kn_zero": "fails"}


@dataclass
class CliWorkload:
    """One CLI command, its smallest accepted form, and its output check."""

    name: str
    nodes: int
    argv: list
    setup_argv: list
    output: Path
    check: Callable[[bytes], int]
    setup_nodes: int
    inputs: dict


def _rows(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != RESULT_HEADER:
        return None
    return rows[1:]


def _table(rows):
    """Numeric columns as a float array and the flag column."""
    values = np.array([[float(c) for c in r[:13]] for r in rows])
    flags = np.array([r[13] for r in rows], dtype=object)
    return values, flags


def _col(values, name):
    return values[:, RESULT_HEADER.index(name)]


def _grid_uv(lo_hi_u, lo_hi_v, nu, nv):
    u = np.repeat(S.grid_axis(*lo_hi_u, nu), nv)
    v = np.tile(S.grid_axis(*lo_hi_v, nv), nu)
    return u, v


def check_grid_rows(data: bytes, p: dict, n: int, m, sample_seed: int) -> int:
    """Failed rows of `monge4 grid` on the explicit surface over [-1, 1]^2."""
    rows = _rows(data)
    if rows is None or len(rows) != n * n or any(len(r) != 14 for r in rows):
        return n * n
    values, flags = _table(rows)
    bad = flags != ""
    u, v = _grid_uv((-1.0, 1.0), (-1.0, 1.0), n, n)
    bad |= (_col(values, "u") != u) | (_col(values, "v") != v)
    E, F, G = (_col(values, k) for k in "EFG")
    bad |= S.gap(_col(values, "W2"), E * G - F * F) > PIPELINE_TOL
    ref = S.invariants(*S.jets("explicit", p, u, v))
    for name in ("E", "F", "G", "K", "KN", "H1", "H2", "Hnorm"):
        bad |= S.gap(_col(values, name), ref[name]) > REF_TOL
    src = S.sources(p)["explicit"]
    patch = m.make_explicit(src["f"], src["g"])
    picks = S.rng(sample_seed, 3).choice(n * n, min(SAMPLE_ROWS, n * n),
                                         replace=False)
    for k in picks:
        inv = m.invariants_at(patch, float(u[k]), float(v[k]))
        for name in ("K", "KN", "H1", "H2", "Hnorm"):
            if S.gap(_col(values, name)[k], getattr(inv, name)) > PIPELINE_TOL:
                bad[k] = True
    return int(bad.sum())


def check_classify_report(data: bytes, n: int) -> int:
    """0 if the report is right, else every node of the run."""
    try:
        doc = json.loads(data)
        ok = (all(doc[k]["verdict"] == want
                  for k, want in EXPECTED_VERDICTS.items())
              and doc["chen_qualifier"] == "non-trivial"
              and doc["first_normal_rank"] == 2
              and doc["failed_points"] == 0
              and doc["grid"] == f"[{S.AMINOV_U[0]!r}, {S.AMINOV_U[1]!r}] x "
                                 f"[{S.AMINOV_V[0]!r}, {S.AMINOV_V[1]!r}], "
                                 f"{n} x {n}")
    except (ValueError, KeyError, TypeError):
        ok = False
    return 0 if ok else n * n


def hole_mask(seed: int, n: int):
    """Planted NaN dropouts: (f holes, g holes), about HOLE_SHARE of cells."""
    g = S.rng(seed, 1)
    count = max(1, round(HOLE_SHARE * n * n))
    cells = g.choice(n * n, count, replace=False)
    channel = g.integers(0, 3, count)  # 0: f, 1: g, 2: both
    fh = np.zeros(n * n, bool)
    gh = np.zeros(n * n, bool)
    fh[cells[channel != 1]] = True
    gh[cells[channel != 0]] = True
    return fh.reshape(n, n), gh.reshape(n, n)


def write_samples(path: Path, p: dict, n: int, seed: int | None) -> None:
    """Two-channel samples of the explicit surface over [-1, 1]^2."""
    u, v = _grid_uv((-1.0, 1.0), (-1.0, 1.0), n, n)
    (f, *_), (g, *_) = S.jets("explicit", p, u, v)
    f, g = f.copy(), g.copy()
    if seed is not None:
        fh, gh = hole_mask(seed, n)
        f[fh.ravel()] = np.nan
        g[gh.ravel()] = np.nan
    lines = ["u,v,f,g\n"]
    lines += [f"{a!r},{b!r},{c!r},{d!r}\n" for a, b, c, d
              in zip(u.tolist(), v.tolist(), f.tolist(), g.tolist())]
    path.write_text("".join(lines))


def expected_ingest_flags(seed: int, n: int):
    """'boundary', 'bad-sample' or '' per node, v fastest."""
    fh, gh = hole_mask(seed, n)
    holes = np.pad(fh | gh, 1)
    near = np.zeros((n, n), bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            near |= holes[di:di + n, dj:dj + n]
    kind = np.where(near, "bad-sample", "").astype(object)
    kind[0, :] = kind[-1, :] = kind[:, 0] = kind[:, -1] = "boundary"
    return kind.ravel()


def check_ingest_rows(data: bytes, p: dict, n: int, seed: int) -> int:
    """Failed rows of `monge4 ingest` on the planted-hole samples file."""
    rows = _rows(data)
    if rows is None or len(rows) != n * n or any(len(r) != 14 for r in rows):
        return n * n
    values, flags = _table(rows)
    want = expected_ingest_flags(seed, n)
    kind = np.array([f.split(":")[0] for f in flags], dtype=object)
    bad = kind != want
    u, v = _grid_uv((-1.0, 1.0), (-1.0, 1.0), n, n)
    bad |= (np.abs(_col(values, "u") - u) > 1e-12) | \
        (np.abs(_col(values, "v") - v) > 1e-12)
    numeric = values[:, 2:]
    flagged = flags != ""
    # flagged rows carry no numbers; clean rows carry only finite ones
    bad |= flagged & ~np.isnan(numeric).all(axis=1)
    bad |= ~flagged & ~np.isfinite(numeric).all(axis=1)
    ref = S.invariants(*S.jets("explicit", p, u, v))
    h = 2.0 / (n - 1)
    for name in ("K", "KN"):
        err = np.abs(_col(values, name) - ref[name])
        limit = FD_CONST * h * h * (1.0 + np.abs(ref[name]))
        bad |= ~flagged & ~(err <= limit)
    return int(bad.sum())


def grid_explicit(work: Path, seed: int, m, tiny: bool) -> CliWorkload:
    n = (TINY if tiny else SIZES)["grid_explicit"]
    p = S.draw_params(seed)
    src = S.sources(p)["explicit"]
    out = work / "grid.csv"
    base = ["grid", "--f", src["f"], "--g", src["g"]]
    return CliWorkload(
        "grid_explicit", n * n,
        base + ["--nu", str(n), "--nv", str(n), "--out", str(out)],
        base + ["--nu", "2", "--nv", "2", "--out", str(work / "setup.csv")],
        out, lambda data: check_grid_rows(data, p, n, m, seed), 4,
        {"params": p, "grid": [n, n], "exprs": src})


def classify_aminov(work: Path, seed: int, m, tiny: bool) -> CliWorkload:
    n = (TINY if tiny else SIZES)["classify_aminov"]
    p = S.draw_params(seed)
    r = S.sources(p)["aminov"]["r"]
    out = work / "classify.json"
    base = ["classify", "--r", r, "--u0", repr(S.AMINOV_U[0]),
            "--u1", repr(S.AMINOV_U[1]), "--v0", repr(S.AMINOV_V[0]),
            "--v1", repr(S.AMINOV_V[1]), "--predicates", "chen"]
    return CliWorkload(
        "classify_aminov", n * n,
        base + ["--nu", str(n), "--nv", str(n), "--out", str(out)],
        base + ["--nu", "2", "--nv", "2", "--out", str(work / "setup.json")],
        out, lambda data: check_classify_report(data, n), 4,
        {"params": p, "grid": [n, n], "exprs": {"r": r}})


def ingest_fd(work: Path, seed: int, m, tiny: bool) -> CliWorkload:
    n = (TINY if tiny else SIZES)["ingest_fd"]
    p = S.draw_params(seed)
    samples = work / "samples.csv"
    small = work / "samples3.csv"
    write_samples(samples, p, n, seed)
    write_samples(small, p, 3, None)
    out = work / "ingest.csv"
    fh, gh = hole_mask(seed, n)
    return CliWorkload(
        "ingest_fd", n * n,
        ["ingest", str(samples), "--out", str(out)],
        ["ingest", str(small), "--out", str(work / "setup.csv")],
        out, lambda data: check_ingest_rows(data, p, n, seed), 9,
        {"params": p, "grid": [n, n], "holes": int((fh | gh).sum()),
         "samples_bytes": samples.stat().st_size})


CLI_WORKLOADS = {"grid_explicit": grid_explicit,
                 "classify_aminov": classify_aminov, "ingest_fd": ingest_fd}


def check_queries(m, p: dict, fam, u, v, res, picks) -> int:
    """Failed queries among `picks` of one batch of point-query results.

    res holds K, KN, H1, H2, Hnorm per query (NaN where the call raised).
    Aminov and translation queries must match monge4's closed forms,
    gradient queries must have K = K_N, explicit queries must match the
    numpy reference.
    """
    bad = np.zeros(len(fam), bool)
    bad[~np.isfinite(res).all(axis=1)] = True
    index = {name: k for k, name in enumerate(S.QUERY_FAMILIES)}
    expl = picks[fam[picks] == index["explicit"]]
    ref = S.invariants(*S.jets("explicit", p, u[expl], v[expl]))
    for col, name in enumerate(("K", "KN", "H1", "H2", "Hnorm")):
        bad[expl] |= S.gap(res[expl, col], ref[name]) > REF_TOL
    grad = picks[fam[picks] == index["gradient"]]
    bad[grad] |= S.gap(res[grad, 0], res[grad, 1]) > CLOSED_FORM_TOL
    src = S.sources(p)
    trans = S.build_patch(m, "translation", src["translation"])
    a, r0 = p["a"], p["r0"]
    for k in picks[fam[picks] == index["translation"]]:
        want = m.translation_closed_forms(trans, float(u[k]), float(v[k]))
        bad[k] |= bool((S.gap(res[k, :4], want) > CLOSED_FORM_TOL).any())
    for k in picks[fam[picks] == index["aminov"]]:
        uk = float(u[k])
        r = m.Jet1(a * uk * uk + r0, 2 * a * uk, 2 * a)
        cf = m.aminov_closed_forms(r, uk, float(v[k]))
        want = (cf.K, cf.KN, cf.H1, cf.H2, cf.Hnorm)
        bad[k] |= bool((S.gap(res[k], want) > CLOSED_FORM_TOL).any())
    return int(bad[picks].sum())
