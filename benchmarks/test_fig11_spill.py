"""Figure 11 variant — the two-tier pool under a tight *memory* limit.

Same mixed batch as Figure 11, but the interesting regime is the one the
paper's single-tier pool handles worst: a memory limit far below the
KEEPALL footprint (10 % / 20 %), where eviction destroys intermediates
that are re-requested a few hundred queries later.  With a spill
directory attached, a victim whose benefit (``Cost × Weight``) exceeds
what the store has measured a disk round trip to cost is demoted instead
and promoted back on a match; cheap, never-reused victims are destroyed
exactly as in the memory-only pool.

That rule is what the assertions pin, at both limits: the disk tier
never loses reuse (hits with spill ≥ hits without) and never costs more
than it saves by a margin (seconds with spill ≤ 1.25 × seconds without —
in practice it is faster, see ``docs/BENCHMARKS.md``).  How *many*
victims go to disk is the policy's business, decided on the measured
I/O cost of the machine at hand, so it is reported, not asserted.
"""

from __future__ import annotations

from conftest import SF, make_tpch_db

from repro.bench import render_table, run_workload
from repro.workloads.tpch import mixed_instances

LIMITS = [0.1, 0.2]


def run_config(max_bytes=None, spill_dir=None, recycle=True):
    db = make_tpch_db(recycle=recycle, max_bytes=max_bytes,
                      spill_dir=spill_dir)
    batch = mixed_instances(n_instances_each=20, seed=66, sf=SF)
    result = run_workload(db, batch)
    out = {
        "seconds": result.total_seconds,
        "hits": result.hits,
        "promoted": result.promoted_hits,
        "hit_ratio": result.hit_ratio,
        "final_bytes": db.pool_bytes,
        "spilled_bytes": db.pool_spilled_bytes,
    }
    if recycle:
        db.recycler.check_invariants()
        if max_bytes is not None:
            assert db.pool_bytes <= max_bytes
    return out


def run_fig11_spill(tmp_base):
    unlimited = run_config()
    total_bytes = unlimited["final_bytes"]
    rows = []
    results = {}
    for pct in LIMITS:
        limit = max(1 << 20, int(total_bytes * pct))
        mem_only = run_config(max_bytes=limit)
        spill = run_config(
            max_bytes=limit,
            spill_dir=str(tmp_base / f"spill-{int(pct * 100)}"),
        )
        results[pct] = (mem_only, spill)
        for label, res in (("mem-only", mem_only), ("mem+spill", spill)):
            rows.append([
                f"{int(pct * 100)}%", label,
                res["hits"], res["promoted"],
                round(res["hit_ratio"], 3),
                round(res["seconds"], 2),
                round(res["spilled_bytes"] / 1e6, 1),
            ])
    return {
        "unlimited": unlimited,
        "results": results,
        "rows": rows,
    }


def test_fig11_spill_tier_recovers_reuse(benchmark, tmp_path):
    data = benchmark.pedantic(run_fig11_spill, args=(tmp_path,),
                              rounds=1, iterations=1)
    print()
    print(render_table(
        "Fig 11 variant — two-tier pool at tight memory limits "
        f"(unlimited pool: {data['unlimited']['hits']} hits, "
        f"{data['unlimited']['final_bytes'] / 1e6:.1f} MB)",
        ["mem limit", "pool", "hits", "promoted", "hit ratio",
         "seconds", "spill MB"],
        data["rows"],
    ))
    for pct, (mem_only, spill) in data["results"].items():
        # Demoting only what pays never loses reuse ...
        assert spill["hits"] >= mem_only["hits"], (
            f"{pct}: spill {spill['hits']} < mem-only {mem_only['hits']}"
        )
        # ... and the disk tier cannot reuse *more* than an unlimited pool.
        assert spill["hits"] <= data["unlimited"]["hits"]
        # ... nor costs more time than it saves (by a noise margin).
        assert spill["seconds"] <= 1.25 * mem_only["seconds"], (
            f"{pct}: spill {spill['seconds']:.2f}s vs "
            f"mem-only {mem_only['seconds']:.2f}s"
        )
