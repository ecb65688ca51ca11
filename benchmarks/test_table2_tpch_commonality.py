"""Table II — characteristics of the TPC-H queries.

Paper columns: #instructions marked (excluding binds), intra-query reuse %,
inter-query reuse % (same template, fresh qgen parameters), total time,
potential savings, realised local savings, savings from a single
inter-query reuse.

Expected shape (paper, SF-1): high inter for Q4/Q16/Q18/Q22, high intra for
Q11/Q19, near-zero overlap for Q6/Q14/Q15.
"""

from __future__ import annotations

from conftest import SF, make_tpch_db

from repro.bench import render_table
from repro.workloads.tpch import ParamGenerator


def collect_table2():
    db = make_tpch_db()
    naive = make_tpch_db(recycle=False)
    pg_naive = ParamGenerator(seed=55, sf=SF)
    rows = []
    for name in sorted(db._templates):
        pg = ParamGenerator(seed=55, sf=SF)
        db.reset_recycler()
        import time

        # Naive total time (hot data).
        p_naive = pg_naive.params_for(name)
        naive.run_template(name, p_naive)
        t0 = time.perf_counter()
        naive.run_template(name, p_naive)
        total = time.perf_counter() - t0

        # First instance: cold pool -> intra-query commonality.
        r1 = db.run_template(name, pg.params_for(name))
        marked = max(r1.stats.n_marked_nonbind, 1)
        intra = 100.0 * r1.stats.local_hits_nonbind / marked
        potential = r1.stats.potential_time + r1.stats.saved_time

        # Second instance, fresh parameters -> inter-query commonality.
        r2 = db.run_template(name, pg.params_for(name))
        inter = 100.0 * (
            r2.stats.global_hits_nonbind + r2.stats.subsumed_hits
        ) / marked
        rows.append([
            name.upper(), marked, round(intra, 1), round(inter, 1),
            round(total * 1e3, 2), round(potential * 1e3, 2),
            round(r1.stats.saved_local * 1e3, 2),
            round(r2.stats.saved_global * 1e3, 2),
        ])
    return rows


def test_table2_commonality(benchmark):
    rows = benchmark.pedantic(collect_table2, rounds=1, iterations=1)
    print()
    print(render_table(
        f"Table II — TPC-H query characteristics (SF {SF})",
        ["query", "#instr", "intra%", "inter%", "total ms",
         "pot. ms", "local ms", "glob ms"],
        rows,
    ))
    by_name = {r[0]: r for r in rows}
    # Shape checks mirroring the paper's observations.
    assert by_name["Q18"][3] > 40        # heavy inter-query reuse
    assert by_name["Q11"][2] > 10        # notable intra-query reuse
    assert by_name["Q14"][3] <= by_name["Q18"][3]
