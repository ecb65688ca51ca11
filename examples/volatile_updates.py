"""Recycling in a volatile database (paper §6.4).

Interleaves bursts of inserts with an analytics query and shows the
paper's synchronisation mode, immediate column-wise invalidation: each
insert drops the pooled intermediates over the changed table, so the
query after it recomputes them and the pool re-warms.

Run:  python examples/volatile_updates.py
"""

import numpy as np

import repro


def make_conn() -> repro.Connection:
    conn = repro.connect()
    rng = np.random.default_rng(7)
    n = 100_000
    conn.create_table(
        "events",
        {"ts": "int64", "severity": "int64", "value": "float64"},
        {
            "ts": np.arange(n),
            "severity": rng.integers(0, 10, n),
            "value": rng.random(n) * 1000,
        },
    )
    return conn


def main() -> None:
    conn = make_conn()
    rng = np.random.default_rng(11)
    cur = conn.cursor()
    query = "select count(*) from events where severity >= ?"
    for step in range(6):
        cur.execute(query, (7,))
        print(f"step {step}: count={cur.fetchone()[0]:>6}  "
              f"hits {cur.stats.hits}/{cur.stats.n_marked}  "
              f"pool {conn.database.pool_entries} entries")
        # Repeating the query before the next burst hits in full.
        cur.execute(query, (7,))
        print(f"        repeat  hits {cur.stats.hits}/{cur.stats.n_marked}")
        # Append a burst of fresh events: the pooled slice over `events`
        # is invalidated, so the next query starts cold again.
        k = 500
        conn.insert("events", {
            "ts": np.arange(k) + 10_000_000 * (step + 1),
            "severity": rng.integers(0, 10, k),
            "value": rng.random(k) * 1000,
        })
    print(f"invalidated entries: {conn.database.recycler.totals.invalidations}")
    conn.close()


if __name__ == "__main__":
    main()
