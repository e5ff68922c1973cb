"""Traced run: per-module numbers measured from outside monge4.

monge4 itself is not instrumented.  Spans are recorded here, around
calls into each module's public functions, and each span wraps one
module's batch of calls (one `sample_grid`, or 2000 `first_form` calls),
never a single node, so the cost of tracing stays at a few clock reads
per batch.  Spans are kept in memory and written out when the run ends.

A traced run has three parts:

1. the workload's CLI command once, untraced, and the same calls
   replayed in process without spans: their difference is
   `cli.overhead_s`;
2. the replay again with one span per module call; `trace.overhead_frac`
   is what those spans add to the untraced replay;
3. a sweep that times the layers the replay cannot separate
   (`eval_patch`, the forms, both invariant paths, the predicates) on a
   seeded sample of the workload's nodes, repeated until the run's
   seconds are used, plus a 41 x 41 pass of every top-level function the
   workload does not call itself, so every metric is present on every
   workload.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import surfaces as S

SWEEP_NODES = 2000
SWEEP_GRID = 41
TINY_SWEEP = (5, 20)  # grid side and node sample of --tiny runs
COMPILE_REPS = 50
MAKE_REPS = 10


class Tracer:
    """Spans in memory: name, start, end, parent, and the work they cover."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, nodes: int = 0, calls: int = 1):
        rec = {"id": len(self.spans),
               "parent": self._open[-1] if self._open else None,
               "name": name, "nodes": nodes, "calls": calls}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def names(self) -> set:
        return {s["name"] for s in self.spans}

    def finish(self) -> None:
        """Duration and self time (duration minus child spans) per span."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            s["dur"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child[s["parent"]] += s["dur"]
        for s in self.spans:
            s["self"] = s["dur"] - child[s["id"]]

    def total(self, name: str):
        picked = [s for s in self.spans if s["name"] == name]
        return (sum(s["dur"] for s in picked), sum(s["nodes"] for s in picked),
                sum(s["calls"] for s in picked))

    def us_per_node(self, name: str) -> float:
        dur, nodes, _ = self.total(name)
        return 1e6 * dur / nodes

    def summary(self) -> list:
        """Per span name: count, total and self seconds, first-seen order."""
        rows = {}
        for s in self.spans:
            row = rows.setdefault(s["name"], {"span": s["name"], "count": 0,
                                              "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s["dur"]
            row["self_s"] += s["self"]
        return list(rows.values())

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"trace_id": self.trace_id, "spans": self.spans}, fh)


def no_span(name: str, nodes: int = 0, calls: int = 1):
    return nullcontext()


def tracing_overhead(spans: int, untraced_s: float, reps: int = 5000) -> float:
    """What `spans` spans add to an untraced run of `untraced_s` seconds.

    The cost of one span is timed on a scratch tracer.  Timing the traced
    and the untraced replay against each other would measure mostly this
    machine's run-to-run noise, which is a thousand times larger.
    """
    scratch = Tracer("span-cost")
    start = time.perf_counter()
    for _ in range(reps):
        with scratch.span("cost"):
            pass
    return spans * (time.perf_counter() - start) / reps / untraced_s


# -- replays: the calls each CLI command makes, in the same order ---------

def replay_grid(m, span, w):
    n = w.inputs["grid"][0]
    src = w.inputs["exprs"]
    with span("patch.make_patch"):
        patch = m.make_explicit(src["f"], src["g"])
    spec = m.GridSpec(-1.0, 1.0, -1.0, 1.0, n, n)
    with span("grid.sample_grid", nodes=n * n):
        result = m.sample_grid(patch, spec)
    with span("grid.export_csv", nodes=n * n):
        m.export_csv(result, str(w.output))
    return {"patch": patch, "results": [result], "spec": spec}


def replay_classify(m, span, w):
    n = w.inputs["grid"][0]
    with span("patch.make_patch"):
        patch = m.make_aminov(w.inputs["exprs"]["r"], S.AMINOV_U)
    spec = m.GridSpec(*S.AMINOV_U, *S.AMINOV_V, n, n)
    with span("classify.classify_surface", nodes=n * n):
        report = m.classify_surface(patch, spec)
    with span("classify.report_to_json"):
        w.output.write_text(m.report_to_json(report) + "\n")
    return {"patch": patch, "results": [], "spec": spec}


def replay_ingest(m, span, w):
    from monge4.grid import read_samples_csv
    n = w.inputs["grid"][0]
    path = str(w.argv[1])
    with span("grid.read_samples_csv", nodes=n * n):
        records = read_samples_csv(path)
    with span("grid.ingest_samples", nodes=n * n):
        dp = m.ingest_samples(records, source=path)
    with span("grid.evaluate_discrete", nodes=n * n):
        result = m.evaluate_discrete(dp)
    with span("grid.export_csv", nodes=n * n):
        m.export_csv(result, str(w.output))
    return {"dp": dp, "results": [result], "spec": dp.spec()}


def replay_queries(m, span, q):
    with span("patch.make_patch", calls=len(S.QUERY_FAMILIES)):
        patches = [S.build_patch(m, name, q["sources"][name])
                   for name in S.QUERY_FAMILIES]
    fam, u, v = S.query_points(q["seed"], 0, q["batch"])
    calls = list(zip([patches[k] for k in fam], u.tolist(), v.tolist()))
    with span("invariants.invariants_at", nodes=len(calls)):
        invs = [m.invariants_at(p, uk, vk) for p, uk, vk in calls]
    res = np.array([(i.K, i.KN, i.H1, i.H2, i.Hnorm) for i in invs])
    return {"patches": patches, "results": [], "queries": (fam, u, v, res)}


# -- sweep ----------------------------------------------------------------

def _sample_nodes(ctx, wname, seed, size):
    """(patch, u, v, fd index or None) for the per-layer decomposition."""
    g = S.rng(seed, 4)
    if wname == "point_queries":
        fam, u, v, _ = ctx["queries"]
        k = min(size, len(fam))
        return [(ctx["patches"][fam[i]], float(u[i]), float(v[i]), None)
                for i in range(k)]
    spec = ctx["spec"]
    n = spec.nu
    if wname == "ingest_fd":
        flags = np.array([r.flag for r in ctx["results"][0].rows])
        clean = np.flatnonzero(flags == "")
        picks = g.choice(clean, min(size, clean.size), replace=False)
        patch = ctx["exact"]
    else:
        picks = g.choice(n * n, min(size, n * n), replace=False)
        patch = ctx["patch"]
    return [(patch, spec.u_at(int(k) // n), spec.v_at(int(k) % n),
             (int(k) // n, int(k) % n) if wname == "ingest_fd" else None)
            for k in picks]


def decompose(m, span, nodes, dp):
    """Time each layer of the point pipeline over the same nodes."""
    from monge4.classify import first_normal_rank
    from monge4.grid import fd_jets
    from monge4.invariants import gauss_curvature, mean_curvature, \
        normal_torsion
    n = len(nodes)
    with span("patch.eval_patch", nodes=n):
        exact = [m.eval_patch(p, u, v) for p, u, v, _ in nodes]
    jets = exact
    if dp is not None:
        with span("grid.fd_jets", nodes=n):
            jets = [fd_jets(dp, *ij) for *_, ij in nodes]
    with span("forms.first_form", nodes=n):
        ffs = [m.first_form(j) for j in jets]
    with span("forms.normal_frame", nodes=n):
        nfs = [m.normal_frame(j, ff) for j, ff in zip(jets, ffs)]
    with span("forms.second_form", nodes=n):
        sfs = [m.second_form(j, ff, nf) for j, ff, nf in zip(jets, ffs, nfs)]
    pairs = list(zip(sfs, ffs, jets))
    with span("invariants.frame_path", nodes=n):
        frame = [(gauss_curvature(sf, ff), normal_torsion(sf, ff),
                  mean_curvature(sf, ff)) for sf, ff, _ in pairs]
    with span("invariants.dual_path", nodes=n):
        dual = [(gauss_curvature(sf, ff, j), normal_torsion(sf, ff, j),
                 mean_curvature(sf, ff, j)) for sf, ff, j in pairs]
    with span("invariants.point_data", nodes=n):
        for j in jets:
            m.point_data(j)
    with span("classify.chen_residual", nodes=n):
        for sf in sfs:
            m.chen_residual(sf)
    with span("classify.pseudo_umbilical_residual", nodes=n):
        for sf in sfs:
            m.pseudo_umbilical_residual(sf)
    with span("classify.first_normal_rank", nodes=n):
        for sf in sfs:
            first_normal_rank(sf)
    return exact, jets, frame, dual


def _flat(path_values):
    K, KN, (H1, H2, _) = path_values
    return np.array([K, KN, H1, H2])


def sweep(m, tracer, wname, seed, ctx, deadline, small, sample):
    """Layer timings plus every top-level function the replay skipped.

    `small` is the side of the grid for the skipped top-level functions,
    `sample` the number of nodes in the layer decomposition.
    """
    from monge4.classify import MINIMAL_TOL
    from monge4.grid import (export_samples_csv, fd_jets, read_samples_csv,
                             sample_values)
    from monge4.invariants import CHECK_TOL
    span = tracer.span
    stats = {}
    sources = compile_sources(wname, ctx["params"])
    with span("expr.compile_expr", calls=COMPILE_REPS * len(sources)):
        for _ in range(COMPILE_REPS):
            for text, variables in sources:
                m.compile_expr(text, variables)
    family = {"classify_aminov": "aminov"}.get(wname, "explicit")
    src = S.sources(ctx["params"])[family]
    with span("patch.make_patch", calls=MAKE_REPS):
        for _ in range(MAKE_REPS):
            patch = S.build_patch(m, family, src)
    ctx.setdefault("exact", patch)

    # grid passes on a small grid over the workload's own bounds
    spec = ctx.get("spec")
    lo = (spec.u0, spec.u1, spec.v0, spec.v1) if spec else (-1.0, 1.0) * 2
    small_spec = m.GridSpec(*lo, small, small)
    names = tracer.names()
    if "classify.classify_surface" not in names:
        with span("classify.classify_surface", nodes=small * small):
            m.classify_surface(patch, small_spec)
    if "grid.sample_grid" not in names:
        with span("grid.sample_grid", nodes=small * small):
            result = m.sample_grid(patch, small_spec)
        ctx["results"].append(result)
        if "grid.export_csv" not in names:
            out = ctx["work"] / "sweep.csv"
            with span("grid.export_csv", nodes=small * small):
                m.export_csv(result, str(out))
            ctx["export_bytes"] = out.stat().st_size
    fd_err = 0.0
    if "grid.evaluate_discrete" not in names:
        path = ctx["work"] / "sweep_samples.csv"
        export_samples_csv(sample_values(patch, small_spec), str(path))
        nn = small * small
        with span("grid.read_samples_csv", nodes=nn):
            records = read_samples_csv(str(path))
        with span("grid.ingest_samples", nodes=nn):
            dp = m.ingest_samples(records, source=str(path))
        with span("grid.evaluate_discrete", nodes=nn):
            ctx["results"].append(m.evaluate_discrete(dp))
        inner = [(i, j) for i in range(1, small - 1)
                 for j in range(1, small - 1)]
        with span("grid.fd_jets", nodes=len(inner)):
            fd = [fd_jets(dp, i, j) for i, j in inner]
        spec_dp = dp.spec()
        for (i, j), jt in zip(inner, fd):
            exact = m.invariants_at(patch, spec_dp.u_at(i), spec_dp.v_at(j))
            fd_err = max(fd_err, abs(m.point_data(jt).inv.K - exact.K))

    # layer decomposition, repeated while the run has time left
    nodes = _sample_nodes(ctx, wname, seed, sample)
    dp = ctx.get("dp")
    reps = 0
    while reps == 0 or time.monotonic() < deadline:
        exact, jets, frame, dual = decompose(m, span, nodes, dp)
        reps += 1
        if reps == 1:
            gaps = [S.gap(_flat(d), _flat(f)).max()
                    for d, f in zip(dual, frame)]
            stats["invariants.max_check_gap"] = float(max(gaps)) / CHECK_TOL
            hnorm = np.array([f[2][2] for f in frame])
            stats["classify.short_circuit_frac"] = float(
                np.mean(hnorm < MINIMAL_TOL))
            if dp is not None:
                fd_err = max(abs(m.point_data(j).inv.K - m.point_data(e).inv.K)
                             for j, e in zip(jets, exact))
    stats["grid.fd_max_err_K"] = fd_err
    stats["sweep_reps"] = reps
    return stats


def layer_metrics(tracer, stats, ctx, cli_overhead, trace_overhead) -> dict:
    """The per_layer metrics of BENCHMARK.json, from spans and counts."""
    t = tracer
    us = {name: t.us_per_node(name) for name in (
        "patch.eval_patch", "forms.first_form", "forms.normal_frame",
        "forms.second_form", "invariants.point_data",
        "invariants.frame_path", "invariants.dual_path",
        "classify.classify_surface", "classify.chen_residual",
        "classify.pseudo_umbilical_residual", "classify.first_normal_rank",
        "grid.sample_grid", "grid.export_csv", "grid.read_samples_csv",
        "grid.ingest_samples", "grid.fd_jets", "grid.evaluate_discrete")}
    flags = {"boundary": 0, "bad-sample": 0, "domain-error": 0}
    for result in ctx["results"]:
        for row in result.rows:
            kind = row.flag.split(":")[0]
            if kind in flags:
                flags[kind] += 1
    compile_s, _, compile_calls = t.total("expr.compile_expr")
    make_s, _, make_calls = t.total("patch.make_patch")
    out = {f"{name}_us_per_node": (value, "us/node")
           for name, value in us.items()}
    out.update({
        "expr.compile_expr_us": (1e6 * compile_s / compile_calls, "us"),
        "patch.make_patch_ms": (1e3 * make_s / make_calls, "ms"),
        "invariants.crosscheck_us_per_node": (
            us["invariants.dual_path"] - us["invariants.frame_path"],
            "us/node"),
        "invariants.max_check_gap": (stats["invariants.max_check_gap"],
                                     "xCHECK_TOL"),
        "classify.self_us_per_node": (
            us["classify.classify_surface"] - us["patch.eval_patch"]
            - us["invariants.point_data"], "us/node"),
        "classify.short_circuit_frac": (stats["classify.short_circuit_frac"],
                                        "ratio"),
        "grid.export_bytes": (ctx["export_bytes"], "bytes"),
        "grid.flagged_boundary": (flags["boundary"], "count"),
        "grid.flagged_bad_sample": (flags["bad-sample"], "count"),
        "grid.flagged_domain_error": (flags["domain-error"], "count"),
        "grid.fd_max_err_K": (stats["grid.fd_max_err_K"], "abs"),
        "cli.overhead_s": (cli_overhead, "s"),
        "trace.overhead_frac": (trace_overhead, "ratio"),
    })
    return out


REPLAYS = {"grid_explicit": replay_grid, "classify_aminov": replay_classify,
           "ingest_fd": replay_ingest}


def compile_sources(wname, params):
    """(text, variables) of every expression the workload compiles."""
    src = S.sources(params)
    uv, u_only, v_only = ("u", "v"), ("u",), ("v",)
    if wname == "classify_aminov":
        return [(src["aminov"]["r"], u_only)]
    if wname == "point_queries":
        t = src["translation"]
        return [(src["explicit"]["f"], uv), (src["explicit"]["g"], uv),
                (t["f3"], u_only), (t["f4"], u_only), (t["g3"], v_only),
                (t["g4"], v_only), (src["aminov"]["r"], u_only),
                (src["gradient"]["p"], uv), (src["gradient"]["q"], uv)]
    return [(src["explicit"]["f"], uv), (src["explicit"]["g"], uv)]
