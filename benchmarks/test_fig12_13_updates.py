"""Figures 12-13 — recycling in the presence of updates.

TPC-H refresh blocks (RF1 inserts + RF2 deletes) are injected into the
mixed batch every K queries: K = 20 (Fig 12) and K = 1 (Fig 13, highly
volatile).  Strategies: KEEPALL/unlimited and LRU with 50 % / 20 % of the
unlimited memory footprint (the scaled analogues of the paper's
2.5 GB / 1 GB pools).

Expected shapes: each update block invalidates a large part of the pool
(visible as sawtooth drops in memory/entries); at K = 1 the pool content
thrashes — intermediates are added and immediately thrown out — and the
hit ratio collapses toward naive behaviour.
"""

from __future__ import annotations

from conftest import SF, make_tpch_db

from repro import LruEviction
from repro.bench import render_series, run_workload
from repro.workloads.tpch import RefreshStream, mixed_instances


def run_updates(k: int, max_bytes=None):
    db = make_tpch_db(max_bytes=max_bytes, eviction=LruEviction())
    refresh = RefreshStream(db, seed=101)
    batch = mixed_instances(n_instances_each=10, seed=88, sf=SF)

    def boundary(i):
        if i > 0 and i % k == 0:
            refresh.update_block()

    result = run_workload(db, batch, on_boundary=boundary)
    return result


def run_fig12_13():
    out = {}
    # Size the limited pools from an update-free keepall run.
    base = run_workload(
        make_tpch_db(), mixed_instances(n_instances_each=10, seed=88, sf=SF))
    footprint = base.records[-1].pool_bytes
    for k in (20, 1):
        out[k] = {
            "keepall": run_updates(k),
            "lru50": run_updates(k, max_bytes=int(footprint * 0.5)),
            "lru20": run_updates(k, max_bytes=int(footprint * 0.2)),
        }
    out["footprint"] = footprint
    return out


def test_fig12_13_updates(benchmark):
    data = benchmark.pedantic(run_fig12_13, rounds=1, iterations=1)
    for k in (20, 1):
        runs = data[k]
        sample = list(range(0, 100, 5))
        print()
        print(render_series(
            f"Fig {'12' if k == 20 else '13'} — RP under updates, K={k} "
            "(pool MB after query #)",
            sample,
            {
                name: [round(runs[name].records[i].pool_bytes / 1e6, 2)
                       for i in sample]
                for name in ("keepall", "lru50", "lru20")
            },
        ))
        print(render_series(
            f"Fig {'12' if k == 20 else '13'} — RP entries, K={k}",
            sample,
            {
                name: [runs[name].records[i].pool_entries for i in sample]
                for name in ("keepall", "lru50", "lru20")
            },
        ))
    # Invalidation visibly shrinks the pool at K=20: memory is not
    # monotonically increasing.
    mem = [r.pool_bytes for r in data[20]["keepall"].records]
    drops = sum(1 for a, b in zip(mem, mem[1:]) if b < a * 0.9)
    assert drops >= 3
    # K=1 thrashes: hit ratio collapses vs K=20.
    assert (data[1]["keepall"].hit_ratio
            < data[20]["keepall"].hit_ratio * 0.8)
