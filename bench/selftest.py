"""Fast self-test of the benchmark at tiny input sizes (about a minute).

    python3 bench/selftest.py

It checks that:
1. every workload, untraced and traced, prints a result line with exactly
   the keys correct/attempted/failed/metrics, reports no failure, and
   emits every metric of BENCHMARK.json with its unit;
2. every workload's output check counts a deliberately corrupted output
   as failed, so no check can pass vacuously;
3. every per_layer metric has a row in the map of bench/README.md;
4. in a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.
Exits 0 when all hold and prints one line per failed expectation.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import time

import numpy as np

import run as R  # sets the bytecode cache prefix before other imports
import surfaces as S
import workloads as W

SPEC = json.loads((R.ROOT / "BENCHMARK.json").read_text())
problems = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)
        print("FAIL", what, flush=True)


def result_line(cwd, workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    return out.returncode, (json.loads(lines[-1]) if lines else None), \
        out.stderr


def check_result_lines() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, res, err = result_line(R.ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(rc == 0 and res is not None,
                   f"{tag}: exit {rc} {err[-500:]}")
            if res is None:
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(res)}")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, f"{tag}: not correct: {res}")
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            wrong_unit = [k for k in want if got.get(k, want[k]) != want[k]]
            expect(got == want, f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {wrong_unit}")


def _replace_cell(data: bytes, row: int, column: str, text: str) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode())))
    rows[row + 1][W.RESULT_HEADER.index(column)] = text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def check_corruption_is_caught(m) -> None:
    runner = R.Runner(time.monotonic() + 120)
    try:
        built = {name: make(R.WORK, 5, m, True)
                 for name, make in W.CLI_WORKLOADS.items()}
        outputs = {}
        for name, w in built.items():
            _, _, rc = runner.cli(w.argv)
            outputs[name] = w.output.read_bytes()
            expect(rc == 0 and w.check(outputs[name]) == 0,
                   f"{name}: clean output fails its check")
    finally:
        runner.close()

    grid, data = built["grid_explicit"], outputs["grid_explicit"]
    row = W._rows(data)[7]
    corrupt = {
        "K off by 1e-6": _replace_cell(data, 7, "K",
                                       repr(float(row[6]) * (1 + 1e-6))),
        "unasked flag": _replace_cell(data, 7, "flag", "boundary"),
        "row dropped": b"".join(data.splitlines(keepends=True)[:-1]),
    }
    for what, bad in corrupt.items():
        expect(grid.check(bad) >= 1, f"grid_explicit check misses: {what}")

    cls, data = built["classify_aminov"], outputs["classify_aminov"]
    doc = json.loads(data)
    doc["pseudo_umbilical"]["verdict"] = "holds"
    expect(cls.check(json.dumps(doc).encode()) == cls.nodes,
           "classify_aminov check misses a wrong verdict")
    doc = json.loads(data)
    doc["first_normal_rank"] = 1
    expect(cls.check(json.dumps(doc).encode()) == cls.nodes,
           "classify_aminov check misses a wrong rank")

    ing, data = built["ingest_fd"], outputs["ingest_fd"]
    rows = W._rows(data)
    clean = next(k for k, r in enumerate(rows) if r[13] == "")
    bad_row = next(k for k, r in enumerate(rows) if r[13].startswith("bad"))
    corrupt = {
        "K beyond the FD bound": _replace_cell(
            data, clean, "K", repr(float(rows[clean][6]) + 1.0)),
        "planted hole not flagged": _replace_cell(data, bad_row, "flag", ""),
        "clean node flagged": _replace_cell(data, clean, "flag", "boundary"),
    }
    for what, bad in corrupt.items():
        expect(ing.check(bad) >= 1, f"ingest_fd check misses: {what}")

    p = S.draw_params(5)
    fam, u, v = S.query_points(5, 0, 200)
    patches = [S.build_patch(m, name, S.sources(p)[name])
               for name in S.QUERY_FAMILIES]
    res = np.array([(i.K, i.KN, i.H1, i.H2, i.Hnorm) for i in (
        m.invariants_at(patches[f], a, b) for f, a, b in zip(fam, u, v))])
    picks = np.arange(len(fam))
    expect(W.check_queries(m, p, fam, u, v, res, picks) == 0,
           "point_queries: clean results fail their check")
    for k in range(len(S.QUERY_FAMILIES)):
        i = int(np.flatnonzero(fam == k)[0])
        bad = res.copy()
        bad[i, 0] *= 1 + 1e-6
        expect(W.check_queries(m, p, fam, u, v, bad, picks) == 1,
               f"point_queries check misses a wrong {S.QUERY_FAMILIES[k]} K")


def check_layer_map() -> None:
    readme = (R.BENCH / "README.md").read_text()
    for metric in SPEC["per_layer"]:
        expect(f"| `{metric['name']}` |" in readme,
               f"README.md has no map row for {metric['name']}")


def check_bare_directory() -> None:
    bare = R.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(R.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(R.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, res, _ = result_line(bare, "grid_explicit", 0)
    expect(rc != 0 and res is None,
           "without src/ the benchmark should fail without a result")
    shutil.rmtree(bare)


if __name__ == "__main__":
    R.WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(R.SRC))
    import monge4
    check_layer_map()
    check_corruption_is_caught(monge4)
    check_bare_directory()
    check_result_lines()
    print("selftest:", "ok" if not problems else f"{len(problems)} failed")
    sys.exit(1 if problems else 0)
