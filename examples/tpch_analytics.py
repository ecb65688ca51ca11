"""Decision-support analytics on TPC-H with and without the recycler.

Reproduces the paper's headline behaviour (§7) on a laptop-scale TPC-H
instance through the DB-API front-end: a stream of template instances —
some repeating, some with fresh parameters — runs dramatically faster
once intermediates are recycled, and the adaptive credit policy keeps
the pool lean without losing hits.

Run:  python examples/tpch_analytics.py
"""

import time

import repro
from repro import AdaptiveCreditAdmission
from repro.bench import run_workload
from repro.workloads.tpch import (
    ParamGenerator,
    build_templates,
    load_tpch,
    sql_instances,
)

SF = 0.01
STREAM = ["q01", "q03", "q06", "q18", "q18", "q03", "q06", "q18", "q01",
          "q03", "q18", "q06"]


def run_stream(conn, instances):
    cur = conn.cursor()
    t0 = time.perf_counter()
    hits = potential = 0
    for name, params in instances:
        cur.execute_template(name, params)
        hits += cur.stats.hits
        potential += cur.stats.n_marked
    return time.perf_counter() - t0, hits, potential


def make_conn(**config):
    conn = repro.connect(**config)
    load_tpch(conn.database, sf=SF)
    build_templates(conn.database)
    return conn


def main() -> None:
    print(f"loading TPC-H SF {SF} ...")
    pg = ParamGenerator(seed=5, sf=SF)
    # A realistic dashboard pattern: a few templates, parameters sometimes
    # repeated (saved reports), sometimes fresh (ad-hoc drill-down).
    saved = {name: pg.params_for(name) for name in set(STREAM)}
    instances = []
    for i, name in enumerate(STREAM):
        params = saved[name] if i % 2 == 0 else pg.params_for(name)
        instances.append((name, params))

    naive = make_conn(recycle=False)
    t_naive, _h, _p = run_stream(naive, instances)
    print(f"naive (no recycler):      {t_naive * 1e3:7.1f} ms")

    keepall = make_conn()
    t_keep, hits, pot = run_stream(keepall, instances)
    print(f"recycler keepall:         {t_keep * 1e3:7.1f} ms  "
          f"(hits {hits}/{pot}, "
          f"pool {keepall.database.pool_bytes / 1e6:.1f} MB)")

    adapt = make_conn(admission=AdaptiveCreditAdmission(credits=3))
    t_adapt, hits, pot = run_stream(adapt, instances)
    print(f"recycler adaptive credit: {t_adapt * 1e3:7.1f} ms  "
          f"(hits {hits}/{pot}, "
          f"pool {adapt.database.pool_bytes / 1e6:.1f} MB)")

    print("\nper-kind pool content (keepall):")
    print(keepall.database.recycler_report().render())

    print("\nQ18 drill-down: the lineitem grouping is parameter-free, so")
    print("every new quantity threshold reuses it (paper Fig. 4b):")
    cur = keepall.cursor()
    for qty in (260.0, 280.0, 300.0):
        t0 = time.perf_counter()
        cur.execute_template("q18", {"quantity": qty})
        dt = (time.perf_counter() - t0) * 1e3
        print(f"  quantity > {qty:<6} -> {cur.rowcount} orders, "
              f"{dt:6.2f} ms, hit ratio {cur.stats.hit_ratio:.0%}")

    print("\nprepared-statement batch (parameterized SQL, ':name' "
          "placeholders):")
    batch = sql_instances(n_instances_each=3, seed=42, sf=SF)
    res = run_workload(keepall.database,
                       [(sql, p) for _n, sql, p in batch])
    print(f"  {len(res.records)} statements over "
          f"{res.compile_misses} compiled plans — compile-cache hit "
          f"rate {res.compile_hit_ratio:.0%}, "
          f"recycler hit ratio {res.hit_ratio:.0%}")

    for conn in (naive, keepall, adapt):
        conn.close()


if __name__ == "__main__":
    main()
