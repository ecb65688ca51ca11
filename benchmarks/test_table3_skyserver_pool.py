"""Table III — recycle pool content after the SkyServer 100-query batch.

Per instruction kind: cache lines, memory, average computation time,
reused lines, total reuses, average time saved per reuse.

Expected shapes (paper §8.1): joins are the dominant memory consumers and
the biggest time savers; binds and view ops occupy ~0 MB; the overall
fraction of monitored instructions successfully reused is very high
(paper: 95.6 %).
"""

from __future__ import annotations

from conftest import make_sky_db

from repro.bench import render_table
from repro.core.stats import pool_report
from repro.workloads.skyserver import SkyQueryLog


def run_table3():
    db = make_sky_db()
    spec = db.catalog.table("elredshift").column_array("specobjid")
    # Near-verbatim repetition of the two spatial parameter sets, as the
    # paper observed (95.6 % of monitored instructions reused).
    log = SkyQueryLog(spec, seed=9, subsumable_fraction=0.05)
    hits = potential = 0
    for qi in log.sample(100):
        r = db.execute(*qi.as_sql())
        hits += r.stats.hits
        potential += r.stats.n_marked
    return db, pool_report(db.recycler.pool), hits, potential


def test_table3_pool_content(benchmark):
    db, report, hits, potential = benchmark.pedantic(
        run_table3, rounds=1, iterations=1
    )
    rows = [
        [r.kind, r.entries, round(r.mbytes, 2), round(r.avg_cost_ms, 3),
         r.reused_entries, r.reuses, round(r.avg_saved_ms, 3)]
        for r in report.rows
    ]
    total = report.total
    rows.append(["total", total.entries, round(total.mbytes, 2),
                 round(total.avg_cost_ms, 3), total.reused_entries,
                 total.reuses, round(total.avg_saved_ms, 3)])
    print()
    print(render_table(
        f"Table III — SkyServer pool after 100 queries "
        f"(monitored reuse {hits}/{potential} = {hits / potential:.1%})",
        ["kind", "lines", "MB", "avg ms", "reused", "reuses",
         "avg saved ms"],
        rows,
    ))
    by_kind = {r.kind: r for r in report.rows}
    # Joins dominate memory; binds/views occupy none.
    assert by_kind["join"].nbytes == max(r.nbytes for r in report.rows)
    assert by_kind.get("bind") and by_kind["bind"].nbytes == 0
    # The paper reports 95.6 % monitored reuse; we require a high ratio.
    assert hits / potential > 0.6
