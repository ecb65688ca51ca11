"""A web-portal workload: the SkyServer pattern (paper §8).

Simulates the astronomy portal the paper evaluates: a dominant spatial
cone-search template with overlapping parameter sets, documentation-table
lookups, and occasional point queries, driven through DB-API cursors.
The recycler self-organises around the workload — no DBA, no
materialised views — and narrower cone searches are answered by
*subsuming* cached wider ones.

Run:  python examples/skyserver_portal.py
"""

import time

import repro
from repro.workloads.skyserver import (
    SkyQueryLog,
    build_sky_templates,
    load_skyserver,
)


def run_log(conn, batch):
    cur = conn.cursor()
    t0 = time.perf_counter()
    hits = potential = subsumed = 0
    for qi in batch:
        cur.execute_template(qi.template, qi.params)
        hits += cur.stats.hits
        potential += cur.stats.n_marked
        subsumed += cur.stats.subsumed_hits
    return time.perf_counter() - t0, hits, potential, subsumed


def make_conn(**config):
    conn = repro.connect(**config)
    load_skyserver(conn.database, n_obj=100_000)
    build_sky_templates(conn.database)
    return conn


def main() -> None:
    print("loading synthetic sky catalogue (100k objects) ...")
    conn = make_conn()
    naive = make_conn(recycle=False)

    spec_ids = conn.database.catalog.table("elredshift") \
        .column_array("specobjid")
    log = SkyQueryLog(spec_ids, seed=3)
    batch = log.sample(150)

    t_naive, *_ = run_log(naive, batch)
    t_rec, hits, potential, subsumed = run_log(conn, batch)

    print("\n150-query portal log")
    print(f"  naive:    {t_naive * 1e3:8.1f} ms")
    print(f"  recycled: {t_rec * 1e3:8.1f} ms  "
          f"({t_naive / t_rec:.1f}x faster)")
    print(f"  pool hits {hits}/{potential} = {hits / potential:.0%} "
          f"({subsumed} by subsumption)")
    print(f"  pool size {conn.database.pool_bytes / 1e6:.1f} MB, "
          f"{conn.database.pool_entries} entries")

    print("\npool content by instruction kind (cf. paper Table III):")
    print(conn.database.recycler_report().render())

    print("\nzoom-in search (inside a cached cone -> range subsumption):")
    cur = conn.cursor()
    t0 = time.perf_counter()
    cur.execute_template("sky_nearby", {"ra": 195.05, "dec": 2.55,
                                        "r": 0.2})
    dt = (time.perf_counter() - t0) * 1e3
    print(f"  fGetNearbyObjEq(195.05, 2.55, 0.2): {cur.rowcount} row(s) "
          f"in {dt:.2f} ms, subsumed hits: {cur.stats.subsumed_hits}")

    conn.close()
    naive.close()


if __name__ == "__main__":
    main()
