"""Figure 15 — combined-subsumption micro-benchmarks B2 and B4.

Per §8.3: 60-query batches where every (k+1)-th query is a *seed* whose
range is answerable only by combining k previously cached ranges.  The
figure reports (top) total-time ratio of subsumed vs regular execution,
(middle) the selection-operator time ratio, and (bottom) the time spent in
the subsumption algorithm itself.

Expected shapes: seed queries run well below the regular time (paper: the
subsumed selection at ~20 % of a regular selection); the algorithm
overhead stays far below a millisecond and grows mildly with k and pool
size (paper: <= 0.25 ms at k=4, 800 cached instructions).
"""

from __future__ import annotations

import time

from conftest import make_sky_db

from repro.bench import render_series, render_table
from repro.workloads.skyserver import RANGE_SQL, combined_subsumption_batch


#: The paper's micro-benchmarks run against 10M objects; we scale to 400k
#: so a regular range scan is expensive relative to subsumed execution.
MICRO_OBJECTS = 400_000


def run_micro(k: int, n_seeds: int):
    db = make_sky_db(n_obj=MICRO_OBJECTS)
    naive = make_sky_db(n_obj=MICRO_OBJECTS, recycle=False)
    batch = combined_subsumption_batch(n_seeds, k, seed=7)
    ratios, seed_flags, algo_ms = [], [], []
    prev_algo = 0.0
    for rq in batch:
        params = {"lo": rq.lo, "hi": rq.hi}
        t0 = time.perf_counter()
        db.execute(RANGE_SQL, params)
        rec = time.perf_counter() - t0
        t0 = time.perf_counter()
        naive.execute(RANGE_SQL, params)
        nav = time.perf_counter() - t0
        ratios.append(rec / nav if nav > 0 else 1.0)
        seed_flags.append(rq.is_seed)
        algo_total = db.recycler.totals.subsumption_algo_time
        algo_ms.append((algo_total - prev_algo) * 1e3)
        prev_algo = algo_total
    combined = db.recycler.totals.combined_hits
    search_ms = (
        db.recycler.totals.combined_search_time
        / max(db.recycler.totals.combined_search_calls, 1) * 1e3
    )
    return {
        "ratios": ratios,
        "seed_flags": seed_flags,
        "algo_ms": algo_ms,
        "combined_hits": combined,
        "avg_search_ms": search_ms,
    }


def run_fig15():
    return {
        "B2": run_micro(k=2, n_seeds=20),
        "B4": run_micro(k=4, n_seeds=12),
    }


def test_fig15_combined_subsumption(benchmark):
    data = benchmark.pedantic(run_fig15, rounds=1, iterations=1)
    for label, res in data.items():
        n = len(res["ratios"])
        xs = list(range(1, n + 1))
        print()
        print(render_series(
            f"Fig 15 ({label}) — total time ratio & algorithm ms "
            f"(combined hits {res['combined_hits']}, avg search "
            f"{res['avg_search_ms']:.4f} ms)",
            xs[:12],  # first two seed blocks for readability
            {
                "time_ratio": [round(r, 3) for r in res["ratios"][:12]],
                "is_seed": [int(s) for s in res["seed_flags"][:12]],
                "algo_ms": [round(a, 4) for a in res["algo_ms"][:12]],
            },
        ))
        seed_ratios = [r for r, s in zip(res["ratios"], res["seed_flags"])
                       if s]
        cover_ratios = [r for r, s in zip(res["ratios"], res["seed_flags"])
                        if not s]
        print(render_table(
            f"Fig 15 ({label}) — summary",
            ["series", "mean time ratio"],
            [["seed queries (subsumed)",
              round(sum(seed_ratios) / len(seed_ratios), 3)],
             ["covering queries",
              round(sum(cover_ratios) / len(cover_ratios), 3)]],
        ))
    # Every seed answered by combined subsumption.
    assert data["B2"]["combined_hits"] >= 18
    assert data["B4"]["combined_hits"] >= 10
    # Seed queries run faster than regular execution on average.
    for label in ("B2", "B4"):
        res = data[label]
        seed_ratios = [r for r, s in zip(res["ratios"], res["seed_flags"])
                       if s]
        assert sum(seed_ratios) / len(seed_ratios) < 1.0
        # Algorithm overhead well below a millisecond per invocation.
        assert res["avg_search_ms"] < 1.0
