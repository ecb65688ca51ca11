"""Every SQL literal is a plan parameter.

One plan serves every instance of a template whose literals have the
same kinds: LIMIT, OFFSET and substring bounds are parameters like any
other literal, so they may be placeholders, and a paging loop compiles
once.  Plans compiled before a DROP TABLE are never served after it.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.bench import fresh_tpch_db
from repro.errors import ProgrammingError, SqlBindError
from repro.sql.planner import compile_tokens
from repro.workloads.skyserver import SKY_SQL, load_skyserver
from repro.workloads.tpch import (
    SQL_STATEMENTS,
    ParamGenerator,
    statement_params,
)

SF = 0.002

#: A statement with substring bounds, LIMIT and OFFSET.
WINDOW_SQL = (
    "select substring(o_orderpriority, :start, :len) as p, o_orderkey "
    "from orders where o_totalprice > :price "
    "order by o_orderkey limit :lim offset :off"
)


def parametrised_positions(compiled) -> set:
    """Literal positions (reading order) some plan parameter binds: its
    own ``p<i>``, or a member of an IN-list parameter."""
    out = set()
    for name in compiled.program.params:
        idx = int(name[1:])
        default = compiled.default_params[name]
        width = len(default) if isinstance(default, tuple) else 1
        out.update(range(idx, idx + width))
    return out


@pytest.fixture(scope="module")
def db():
    db = fresh_tpch_db(sf=SF)
    load_skyserver(db, n_obj=2_000, seed=17)
    return db


def _instances():
    pg = ParamGenerator(seed=3, sf=SF)
    for name, sql in SQL_STATEMENTS.items():
        yield name, sql, statement_params(name, pg.params_for(name))
    sky_params = {
        "sky_nearby": {"ra": 180.0, "dec": 0.5, "r": 0.1},
        "sky_doc": {"name": "PhotoObj"},
        "sky_point": {"specobjid": 1},
    }
    for name, sql in SKY_SQL.items():
        yield name, sql, sky_params[name]
    yield "window", WINDOW_SQL, {"start": 1, "len": 3, "price": 1000.0,
                                 "lim": 5, "off": 2}


INSTANCES = list(_instances())


@pytest.mark.parametrize("name,sql,params", INSTANCES,
                         ids=[name for name, _s, _p in INSTANCES])
def test_every_literal_is_a_parameter(db, name, sql, params):
    stmt = db.prepare(sql)
    stmt.bind(params)
    assert parametrised_positions(stmt._compiled) == \
        set(range(len(stmt.slots)))


class TestWindowParameters:
    @pytest.fixture
    def t(self):
        db = repro.Database()
        db.create_table("t", {"x": "int64", "w": "U8"},
                        {"x": np.arange(10),
                         "w": [f"w{i}abc" for i in range(10)]})
        return db

    def test_paging_loop_compiles_once(self, t):
        sql = "select x from t order by x limit ? offset ?"
        before = t.compile_cache_stats
        pages = [t.execute(sql, (2, 2 * page)).value.rows()
                 for page in range(5)]
        after = t.compile_cache_stats
        assert pages == [[(2 * p,), (2 * p + 1,)] for p in range(5)]
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 4

    def test_inline_page_bounds_share_one_plan(self, t):
        before = t.compile_cache_stats
        for page in range(5):
            rows = t.execute(
                f"select x from t order by x limit 3 offset {page}"
            ).value.rows()
            assert rows == [(page,), (page + 1,), (page + 2,)]
        assert t.compile_cache_stats.misses - before.misses == 1

    @pytest.mark.parametrize("limit,offset",
                             [(-1, 0), (2.5, 0), ("5", 0), (1, -3)])
    def test_bad_bounds_raise(self, t, limit, offset):
        with pytest.raises(ProgrammingError):
            t.execute("select x from t order by x limit ? offset ?",
                      (limit, offset))

    def test_fractional_inline_limit_raises(self, t):
        with pytest.raises(ProgrammingError):
            t.execute("select x from t limit 2.5")

    def test_substring_bounds_bind(self, t):
        sql = "select substring(w, ?, ?) from t order by x limit 2"
        assert t.execute(sql, (1, 2)).value.rows() == [("w0",), ("w1",)]
        assert t.execute(sql, (3, 3)).value.rows() == [("abc",), ("abc",)]
        assert t.execute(sql, (1, 0)).value.rows() == [("",), ("",)]
        for bad in ((1.5, 2), (1, "2"), (1, -1)):
            with pytest.raises(ProgrammingError):
                t.execute(sql, bad)

    def test_window_on_ungrouped_aggregate(self, t):
        def rows(sql):
            return t.execute(sql).value.rows()

        assert rows("select count(*) from t limit 0") == []
        assert rows("select count(*) from t offset 1") == []
        assert rows("select count(*) from t limit 5") == [(10,)]
        assert rows("select count(*), sum(x) from t limit 0") == []
        assert rows("select count(*), sum(x) from t limit 1 offset 0") == \
            [(10, 45)]


class TestDropTableRetiresPlans:
    SQL = "select x from t where x > 5"

    def test_recreated_table_is_replanned(self):
        db = repro.Database(recycle=False)
        db.create_table("t", {"x": "int64"}, {"x": range(10)})
        assert db.execute(self.SQL).value.rows() == \
            [(6,), (7,), (8,), (9,)]
        db.drop_table("t")
        db.create_table("t", {"x": "int64"}, {"x": range(4, 8)})
        assert db.execute(self.SQL).value.rows() == [(6,), (7,)]
        db.drop_table("t")
        db.create_table("t", {"x": "U8"}, {"x": ["a", "b"]})
        with pytest.raises(SqlBindError):
            db.execute(self.SQL)

    def test_dropped_foreign_key_replans_as_value_join(self):
        db = repro.Database()
        db.create_table("c", {"fk": "int64", "v": "int64"},
                        {"fk": [0, 1, 2, 1], "v": [10, 20, 30, 40]})
        db.create_table("p", {"k": "int64"}, {"k": [0, 1, 2]})
        db.add_foreign_key("c_p", "c", "fk", "p", "k")
        sql = "select v from c, p where fk = k and v > ? order by v"
        assert db.execute(sql, (15,)).value.rows() == [(20,), (30,), (40,)]
        db.drop_table("p")
        db.create_table("p", {"k": "int64"}, {"k": [1, 5]})
        assert db.execute(sql, (15,)).value.rows() == [(20,), (40,)]

    def test_prepared_statement_recompiles_after_drop(self):
        db = repro.Database()
        db.create_table("t", {"x": "int64"}, {"x": range(10)})
        stmt = db.prepare("select x from t where x > ?")
        assert stmt.run((7,)).value.rows() == [(8,), (9,)]
        db.drop_table("t")
        db.create_table("t", {"x": "int64"}, {"x": range(20, 23)})
        before = db.compile_cache_stats
        assert stmt.run((7,)).value.rows() == [(20,), (21,), (22,)]
        after = db.compile_cache_stats
        assert (after.misses - before.misses, after.hits - before.hits) \
            == (1, 0)
        stmt.run((21,))
        assert db.compile_cache_stats.hits - after.hits == 1

    def test_plan_that_raced_a_drop_is_not_served(self):
        db = repro.Database()
        db.create_table("t", {"x": "int64"}, {"x": range(10)})
        db.create_table("other", {"y": "int64"}, {"y": range(3)})
        stmt = db.prepare(self.SQL)
        stale = compile_tokens(db.catalog, stmt.tokens, stmt.key)
        stale.kind_sig = ("num",)
        db.drop_table("other")
        # The compile started before the DROP and lands in the cache
        # after it: the next lookup must not serve it.
        db._cache_template(stmt.key, stale)
        assert db._cached_template(stmt.key, ("num",)) is None
        stmt.bind()
        assert stmt._compiled is not stale


class TestPlanIdentity:
    """What a plan is keyed and named by: a statement's own text."""

    def test_interval_unit_is_part_of_the_plan_key(self):
        db = repro.Database(recycle=False)
        days = np.arange(np.datetime64("1995-01-01"),
                         np.datetime64("1997-01-01"))
        db.create_table("t", {"d": "datetime64[D]"}, {"d": days})
        sql = ("select count(*) from t where d >= date '1995-01-01' "
               "and d < date '1995-01-01' + interval '1' {}")
        assert db.execute(sql.format("year")).value.rows() == [(365,)]
        assert db.execute(sql.format("month")).value.rows() == [(31,)]
        # The magnitude is still a parameter of the one plan per unit.
        assert db.execute(sql.format("day")).value.rows() == [(1,)]
        before = db.compile_cache_stats
        sql_days = sql.replace("'1' {}", "'2' day")
        assert db.execute(sql_days).value.rows() == [(2,)]
        assert db.compile_cache_stats.misses == before.misses

    def test_plans_sharing_a_long_prefix_keep_their_own_credits(self):
        # Credits are keyed by (plan name, pc): two statements that only
        # differ past their 60th character must not share them.
        rng = np.random.default_rng(3)
        n = 5_000
        db = repro.Database(admission=repro.CreditAdmission(credits=1))
        db.create_table("t", {"a": "int64", "b": "int64", "c": "int64"},
                        {"a": rng.integers(0, 2000, n),
                         "b": rng.integers(0, 100, n),
                         "c": rng.integers(-5, 5, n)})
        sql = ("select a, b, c from t where a >= ? and a < 1000 "
               "and c > 0 and b {} ?")
        first = db.execute(sql.format(">"), (10, 20)).stats
        second = db.execute(sql.format("<"), (10, 20)).stats
        assert second.hits > 0
        assert second.hits + second.admissions == second.n_marked
        assert first.template != second.template
