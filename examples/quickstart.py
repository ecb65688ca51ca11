"""Quickstart: a recycled column-store in five minutes.

Creates a small sales database through the DB-API 2.0 front-end, runs
parametrised SQL through the template cache, and shows the recycler at
work: exact reuse across repeated queries, reuse across *different
parameters* (query templates), and run-time subsumption for narrower
ranges.

Run:  python examples/quickstart.py
"""

import datetime
import time

import numpy as np

import repro


def main() -> None:
    # DB-API 2.0 entry point; recycler on, keepall admission, unlimited.
    conn = repro.connect()
    rng = np.random.default_rng(1)
    n = 200_000
    conn.create_table(
        "sales",
        {
            "sale_id": "int64",
            "region": "U8",
            "amount": "float64",
            "sold_at": "datetime64[D]",
        },
        {
            "sale_id": np.arange(n),
            "region": rng.choice(["NORTH", "SOUTH", "EAST", "WEST"], n),
            "amount": np.round(rng.gamma(2.0, 150.0, n), 2),
            "sold_at": np.datetime64("2025-01-01")
            + rng.integers(0, 365, n).astype("timedelta64[D]"),
        },
    )

    cur = conn.cursor()
    query = (
        "select region, count(*) as n, sum(amount) as total "
        "from sales "
        "where sold_at >= ? "
        "and sold_at < ? + interval '3' month "
        "group by region order by total desc"
    )
    march = datetime.date(2025, 3, 1)

    print("== first execution (cold recycle pool) ==")
    t0 = time.perf_counter()
    cur.execute(query, (march, march))
    cold = time.perf_counter() - t0
    for region, count, total in cur:
        print(f"  {region:<6} n={count:<6} total={total:,.2f}")
    print(f"  time: {cold * 1e3:.2f} ms, pool hits: "
          f"{cur.stats.hits}/{cur.stats.n_marked}")

    print("\n== identical parameters again (exact pool hits) ==")
    t0 = time.perf_counter()
    cur.execute(query, (march, march))
    hot = time.perf_counter() - t0
    print(f"  time: {hot * 1e3:.2f} ms "
          f"({cold / hot:.0f}x faster), hits: "
          f"{cur.stats.hits}/{cur.stats.n_marked}")

    print("\n== same statement, new parameters ==")
    june = datetime.date(2025, 6, 1)
    cur.execute(query, (june, june))
    print(f"  hits: {cur.stats.hits}/{cur.stats.n_marked} "
          "(the parameter-independent prefix is reused)")

    print("\n== narrower range: answered by subsumption ==")
    cur.execute(
        "select count(*) from sales "
        "where sold_at >= :lo and sold_at < :hi",
        {"lo": datetime.date(2025, 3, 10),
         "hi": datetime.date(2025, 4, 20)},
    )
    print(f"  count={cur.fetchone()[0]}, subsumed hits: "
          f"{cur.stats.subsumed_hits}")

    print("\n== recycle pool content ==")
    print(conn.database.recycler_report().render())
    conn.close()


if __name__ == "__main__":
    main()
