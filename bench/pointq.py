"""Point-query worker: a fresh interpreter answering `invariants_at` calls.

    python pointq.py SPEC.json            answer the spec's batches
    python pointq.py SPEC.json --setup    build the four patches and exit

SPEC.json (written by run.py) names the seed, the surface sources, the
batch size, the first batch number, the number of batches and where to
write the results.  Each batch draws fresh query points from the seed and its
number, so no two batches repeat a point.  Every call is timed on its
own; the latencies and the results of all calls go to .npy files for
run.py to summarize and check.
"""

import json
import sys
import time

import numpy as np

import surfaces as S
import monge4


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    patches = [S.build_patch(monge4, name, spec["sources"][name])
               for name in S.QUERY_FAMILIES]
    if "--setup" in sys.argv[2:]:
        return 0
    seed, n, first = spec["seed"], spec["batch"], spec["first_batch"]
    clock = time.perf_counter_ns
    invariants_at = monge4.invariants_at
    latencies, results = [], []
    errors, first_error, busy = 0, None, []
    for batch in range(first, first + spec["batches"]):
        fam, u, v = S.query_points(seed, batch, n)
        calls = list(zip([patches[k] for k in fam], u.tolist(), v.tolist()))
        lat, out = [], []
        t_batch = time.perf_counter()
        for patch, uk, vk in calls:
            t0 = clock()
            try:
                inv = invariants_at(patch, uk, vk)
            except Exception as err:  # a failed query is counted, not fatal
                lat.append(clock() - t0)
                out.append((np.nan,) * 5)
                errors += 1
                first_error = first_error or repr(err)
                continue
            lat.append(clock() - t0)
            out.append((inv.K, inv.KN, inv.H1, inv.H2, inv.Hnorm))
        busy.append(time.perf_counter() - t_batch)
        latencies.append(lat)
        results.append(out)
    np.save(spec["results"], np.array(results, dtype=float))
    np.save(spec["latencies"], np.array(latencies, dtype=np.int64))
    summary = {"batches": len(results), "queries": n * len(results),
               "busy_s": busy, "errors": errors, "first_error": first_error}
    with open(spec["summary"], "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
