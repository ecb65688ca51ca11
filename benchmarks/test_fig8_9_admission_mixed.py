"""Figures 8-9 — admission policies on the mixed 200-query workload.

The paper's §7.2 batch: 20 instances each of 10 TPC-H templates with large
overlaps, shuffled.  Policies: KEEPALL, CREDIT(k) for k = 3..10, and the
adaptive credit policy ADAPT(3).

Expected shapes: ADAPT needs substantially less memory than KEEPALL while
keeping a ~95 % relative hit ratio and an execution time close to the best
CREDIT configuration; CREDIT with few credits loses hits, CREDIT with many
approaches KEEPALL in both hits and (bloated) memory.
"""

from __future__ import annotations

from conftest import SF, make_tpch_db

from repro import AdaptiveCreditAdmission, CreditAdmission
from repro.bench import (
    render_table,
    reused_entries,
    reused_memory,
    run_workload,
)
from repro.workloads.tpch import mixed_instances

CREDITS = list(range(3, 11))


def run_policy(admission):
    db = make_tpch_db(admission=admission)
    batch = mixed_instances(n_instances_each=20, seed=66, sf=SF)
    result = run_workload(db, batch)
    mem = db.pool_bytes
    entries = db.pool_entries
    return {
        "seconds": result.total_seconds,
        "hits": result.hits,
        "mem_mb": mem / 1e6,
        "reused_mem_pct": 100.0 * reused_memory(db) / mem if mem else 0.0,
        "reused_entries_pct": (
            100.0 * reused_entries(db) / entries if entries else 0.0
        ),
    }


def run_fig8_9():
    results = {"keepall": run_policy(None)}
    for k in CREDITS:
        results[f"crd{k}"] = run_policy(CreditAdmission(credits=k))
    results["adapt3"] = run_policy(AdaptiveCreditAdmission(credits=3))
    return results


def test_fig8_9_admission_policies(benchmark):
    results = benchmark.pedantic(run_fig8_9, rounds=1, iterations=1)
    keepall = results["keepall"]
    rows = []
    for name, r in results.items():
        rows.append([
            name,
            round(r["mem_mb"], 1),
            round(r["reused_mem_pct"], 1),
            round(r["reused_entries_pct"], 1),
            round(r["hits"] / max(keepall["hits"], 1), 3),
            round(r["seconds"], 2),
        ])
    print()
    print(render_table(
        "Fig 8-9 — admission policies, mixed 200-query batch",
        ["policy", "total MB", "reused mem %", "reused lines %",
         "hit/keepall", "time s"],
        rows,
    ))
    adapt = results["adapt3"]
    # Fig 8: ADAPT uses less memory than KEEPALL with better utilisation.
    assert adapt["mem_mb"] < keepall["mem_mb"]
    assert adapt["reused_mem_pct"] >= keepall["reused_mem_pct"]
    # Fig 9: ADAPT keeps a high relative hit ratio (paper: ~95 %).
    assert adapt["hits"] / keepall["hits"] > 0.85
    # CREDIT hit ratio grows with the number of credits.
    assert results["crd10"]["hits"] >= results["crd3"]["hits"]
