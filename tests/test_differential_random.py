"""Randomized differential testing: recycler-on ≡ recycler-off.

A seeded generator produces random select/join/group-by queries over
randomly generated tables and runs every query against two databases
loaded with identical data — one with the recycler (in several
configurations, including bounded pools that force eviction), one naive.
Results must match exactly (floats to rounding).  Interleaved random
inserts/deletes/updates — applied identically to both databases between
query rounds — exercise §6 invalidation: a stale intermediate surviving
in the pool would surface as a wrong result here.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest

from repro import Database, connect
from repro.bench import run_workload

N_FACT = 4000
N_DIM = 40
STRINGS = ["AA", "AB", "AC", "BA", "BB", "CA", "CB", "CC"]
CATS = ["red", "green", "blue", "gray"]


def _fact_data(rng: np.random.Generator, n: int = N_FACT):
    return {
        "k": rng.integers(0, N_DIM, n),
        "a": rng.integers(0, 1000, n),
        "v": np.round(rng.random(n) * 100, 6),
        "s": rng.choice(STRINGS, n),
    }


def _dim_data(rng: np.random.Generator):
    return {
        "d_key": np.arange(N_DIM),
        "d_cat": rng.choice(CATS, N_DIM),
        "d_w": np.round(rng.random(N_DIM) * 10, 6),
    }


def build_db(seed: int, **kwargs) -> Database:
    """One database over the random tables drawn from *seed*."""
    rng = np.random.default_rng(seed)
    db = Database(**kwargs)
    db.create_table(
        "fact",
        {"k": "int64", "a": "int64", "v": "float64", "s": "U4"},
        _fact_data(rng),
    )
    db.create_table(
        "dim",
        {"d_key": "int64", "d_cat": "U8", "d_w": "float64"},
        _dim_data(rng),
    )
    db.add_foreign_key("fk_kd", "fact", "k", "dim", "d_key")
    return db


def build_pair(seed: int, **recycler_kwargs):
    """Two databases with identical random data: recycled and naive."""
    if recycler_kwargs.get("spill_dir") == "AUTO":
        # A fresh directory per database — the two-tier pool demotes
        # eviction victims here and promotes them back on later matches.
        recycler_kwargs["spill_dir"] = tempfile.mkdtemp(
            prefix="repro-diff-spill-"
        )
    return (build_db(seed, recycle=True, **recycler_kwargs),
            build_db(seed, recycle=False))


# ---------------------------------------------------------------------------
# Query generation: literals are drawn from small pools so the stream
# produces exact repeats (pool hits) and nested ranges (subsumption).
# ---------------------------------------------------------------------------
def gen_query_forms(rng: np.random.Generator):
    """One random query in both forms: ``(inline_sql, qmark_sql, params)``.

    The qmark form replaces every per-instance literal with ``?`` —
    same template, DB-API calling convention — so a cursor driving the
    parameterized form must agree with ``Database.execute`` on the
    inline twin.
    """
    lo = int(rng.choice([0, 100, 200, 300, 400, 500]))
    width = int(rng.choice([50, 150, 300, 600]))
    hi = lo + width
    shape = int(rng.integers(0, 7))
    if shape == 0:
        return (
            f"select count(*) from fact where a >= {lo} and a < {hi}",
            "select count(*) from fact where a >= ? and a < ?",
            (lo, hi),
        )
    if shape == 1:
        return (
            f"select k, count(*) as n, sum(v) as t from fact "
            f"where a between {lo} and {hi} group by k order by k",
            "select k, count(*) as n, sum(v) as t from fact "
            "where a between ? and ? group by k order by k",
            (lo, hi),
        )
    if shape == 2:
        return (
            f"select d_cat, count(*) as n from fact, dim "
            f"where k = d_key and a >= {lo} group by d_cat order by d_cat",
            "select d_cat, count(*) as n from fact, dim "
            "where k = d_key and a >= ? group by d_cat order by d_cat",
            (lo,),
        )
    if shape == 3:
        prefix = str(rng.choice(["A", "B", "AA", "C"]))
        return (
            f"select count(*) from fact where s like '{prefix}%'",
            "select count(*) from fact where s like ?",
            (f"{prefix}%",),
        )
    if shape == 4:
        ks = sorted(rng.choice(N_DIM, size=3, replace=False).tolist())
        in_list = ", ".join(str(k) for k in ks)
        return (
            f"select count(*), sum(a) from fact where k in ({in_list})",
            "select count(*), sum(a) from fact where k in (?, ?, ?)",
            tuple(ks),
        )
    if shape == 5:
        return (
            f"select distinct s from fact where a < {hi} order by s",
            "select distinct s from fact where a < ? order by s",
            (hi,),
        )
    return (
        f"select k, min(v), max(v) from fact "
        f"where a >= {lo} and a < {hi} and v >= 25.0 "
        f"group by k order by k",
        "select k, min(v), max(v) from fact "
        "where a >= ? and a < ? and v >= 25.0 "
        "group by k order by k",
        (lo, hi),
    )


def gen_query(rng: np.random.Generator) -> str:
    return gen_query_forms(rng)[0]


def gen_update(rng: np.random.Generator, *dbs: Database):
    """One random DML statement, applied identically to every database."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        n = int(rng.integers(1, 50))
        rows = {
            "k": rng.integers(0, N_DIM, n),
            "a": rng.integers(0, 1000, n),
            "v": np.round(rng.random(n) * 100, 6),
            "s": rng.choice(STRINGS, n),
        }
        for db in dbs:
            db.insert("fact", {c: v.copy() for c, v in rows.items()})
    elif kind == 1:
        nrows = dbs[0].catalog.table("fact").nrows
        oids = np.unique(rng.integers(0, nrows, int(rng.integers(1, 30))))
        for db in dbs:
            db.delete_oids("fact", oids.copy())
    else:
        nrows = dbs[0].catalog.table("fact").nrows
        oids = np.unique(rng.integers(0, nrows, int(rng.integers(1, 40))))
        values = np.round(rng.random(len(oids)) * 100, 6)
        for db in dbs:
            db.update_column("fact", "v", oids.copy(), values.copy())


def assert_same_result(sql: str, got, expected):
    """Row-for-row equality; floats compared to rounding error."""
    grows, erows = got.rows(), expected.rows()
    assert len(grows) == len(erows), (
        f"{sql}: {len(grows)} rows vs {len(erows)}"
    )
    assert got.names == expected.names
    for g, e in zip(grows, erows):
        for gv, ev in zip(g, e):
            if isinstance(ev, float):
                assert gv == pytest.approx(ev, rel=1e-9, abs=1e-9), sql
            else:
                assert gv == ev, sql


CONFIGS = [
    dict(),
    dict(subsumption=False),
    dict(max_entries=24),
    dict(max_bytes=200_000),
    # Two-tier pool: a tight memory tier forces constant demotion, and
    # re-matches promote — results must still be byte-exact.
    dict(max_bytes=200_000, spill_dir="AUTO", spill_limit_bytes=4_000_000),
]

CONFIG_IDS = ["default", "nosub", "entries24", "bytes200k", "spill200k"]


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_random_queries_differential(config):
    """300 random queries, no updates: recycled results never differ."""
    db_on, db_off = build_pair(seed=7, **config)
    rng = np.random.default_rng(101)
    sqls = [gen_query(rng) for _ in range(300)]
    result = run_workload(db_on, [(s, None) for s in sqls])
    assert not result.errors, [str(r.error) for r in result.errors]
    for sql, got in zip(sqls, result.values()):
        assert_same_result(sql, got, db_off.execute(sql).value)
    # The run must actually have exercised the pool to mean anything.
    assert db_on.recycler.totals.exact_hits > 0
    db_on.recycler.check_invariants()


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_interleaved_updates_differential(config):
    """Rounds of queries with random DML in between: invalidation holds."""
    db_on, db_off = build_pair(seed=13, **config)
    rng = np.random.default_rng(202)
    sqls = [gen_query(rng) for _ in range(8 * 25)]
    expected = []

    def between_rounds(i):
        if i and i % 25 == 0:
            for _ in range(int(rng.integers(1, 4))):
                gen_update(rng, db_on, db_off)
            db_on.recycler.check_invariants()
            # No pooled entry may carry a source version behind the
            # catalogue: the DML just invalidated them all.
            for entry in db_on.recycler.pool.entries():
                for table, column, version in entry.value.sources:
                    current = db_on.catalog.table(table).versions[column]
                    assert version == current, (entry.opname, table, column)
        expected.append(db_off.execute(sqls[i]).value)

    result = run_workload(db_on, [(s, None) for s in sqls],
                          on_boundary=between_rounds)
    assert not result.errors, [str(r.error) for r in result.errors]
    for sql, got, exp in zip(sqls, result.values(), expected):
        assert_same_result(sql, got, exp)
    db_on.recycler.check_invariants()
    assert db_on.recycler.totals.invocations > 0
    assert db_on.recycler.totals.invalidations > 0


#: DB-API cross-check configs: the default pool and the two-tier pool
#: under constant demotion/promotion.
DBAPI_CONFIGS = [
    dict(),
    dict(max_bytes=200_000, spill_dir="AUTO",
         spill_limit_bytes=4_000_000),
]


@pytest.mark.parametrize("config", DBAPI_CONFIGS,
                         ids=["default", "spill200k"])
def test_dbapi_cursor_differential(config):
    """Cursor.execute (parameterized) ≡ Database.execute (inline).

    The same randomized workload runs twice: through a DB-API cursor
    with ``?`` placeholders on the recycled database, and literal-inlined
    through the naive database's facade.  Interleaved DML (applied to
    both) checks §6 invalidation through the cursor path too.
    """
    db_on, db_off = build_pair(seed=31, **config)
    cur = connect(database=db_on).cursor()
    rng = np.random.default_rng(404)
    for _round in range(6):
        for _ in range(40):
            inline, qmark, params = gen_query_forms(rng)
            cur.execute(qmark, params)
            assert_same_result(qmark, cur.result,
                               db_off.execute(inline).value)
        for _ in range(int(rng.integers(1, 3))):
            gen_update(rng, db_on, db_off)
        db_on.recycler.check_invariants()
    assert db_on.recycler.totals.exact_hits > 0
    # The parameterized stream compiled each template shape once: the
    # compile cache served virtually every execution.
    assert db_on.compile_cache_stats.hit_ratio > 0.9


def test_drop_table_invalidates_differentially():
    """DDL: dropping and recreating a table must not leak stale entries."""
    db_on, db_off = build_pair(seed=23)
    rng = np.random.default_rng(303)
    for _ in range(30):
        sql = gen_query(rng)
        assert_same_result(sql, db_on.execute(sql).value,
                           db_off.execute(sql).value)
    new_rng = np.random.default_rng(99)
    data = _fact_data(new_rng, 1000)
    for db in (db_on, db_off):
        db.drop_table("fact")
        db.create_table(
            "fact",
            {"k": "int64", "a": "int64", "v": "float64", "s": "U4"},
            {c: v.copy() for c, v in data.items()},
        )
        db.add_foreign_key("fk_kd", "fact", "k", "dim", "d_key")
    db_on.recycler.check_invariants()
    for _ in range(30):
        sql = gen_query(rng)
        assert_same_result(sql, db_on.execute(sql).value,
                           db_off.execute(sql).value)
    db_on.recycler.check_invariants()


# ---------------------------------------------------------------------------
# The shared pool under real concurrency: serial ≡ 16 threads
# ---------------------------------------------------------------------------
@pytest.mark.stress
@pytest.mark.parametrize("config", [
    dict(),
    dict(max_entries=32),
], ids=["default", "entries32"])
def test_pool_serial_vs_16_threads(config):
    """16 concurrent sessions ≡ the serial run, invariants clean.

    The same randomized query stream runs serially against a naive
    database and 16-way concurrent against a recycled one; every result
    must match row for row, and ``check_invariants()`` — which audits
    the pool's books, indexes and leaf/demotable sets under the pool
    lock — must stay clean after the storm.
    """
    db_on, db_off = build_pair(seed=47, **config)
    rng = np.random.default_rng(505)
    sqls = [gen_query(rng) for _ in range(320)]
    expected = [db_off.execute(s).value for s in sqls]

    result = run_workload(db_on, [(s, None) for s in sqls], sessions=16)
    assert not result.errors, [str(o.error) for o in result.errors]
    for sql, outcome, exp in zip(sqls, result.records, expected):
        assert_same_result(sql, outcome.value, exp)
    db_on.recycler.check_invariants()
    if "max_entries" in config:
        assert len(db_on.recycler.pool) <= config["max_entries"]
    # Cross-session sharing through the pool actually happened.
    assert db_on.recycler.totals.exact_hits > 0
