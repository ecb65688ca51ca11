"""SQL front-end tests: lexer, parser, planner, template cache behaviour."""

import numpy as np
import pytest

from repro import Database
from repro.errors import SqlBindError, SqlError, SqlSyntaxError
from repro.sql.lexer import normalized_key, tokenize
from repro.sql.params import extract_slots
from repro.sql.parser import parse


@pytest.fixture
def sql_db():
    db = Database()
    rng = np.random.default_rng(12)
    n = 3000
    db.create_table(
        "orders",
        {"o_orderkey": "int64", "o_orderdate": "datetime64[D]",
         "o_custkey": "int64", "o_totalprice": "float64",
         "o_priority": "U10"},
        {
            "o_orderkey": np.arange(n),
            "o_orderdate": np.datetime64("1995-01-01")
            + rng.integers(0, 700, n).astype("timedelta64[D]"),
            "o_custkey": rng.integers(0, 60, n),
            "o_totalprice": rng.random(n) * 1000,
            "o_priority": rng.choice(["HIGH", "LOW", "MEDIUM"], n),
        },
    )
    db.create_table(
        "customer",
        {"c_custkey": "int64", "c_name": "U16", "c_segment": "U12"},
        {
            "c_custkey": np.arange(60),
            "c_name": np.array([f"c{i}" for i in range(60)]),
            "c_segment": rng.choice(["BUILDING", "AUTO"], 60),
        },
    )
    db.add_foreign_key("fk", "orders", "o_custkey", "customer", "c_custkey")
    return db


class TestLexer:
    def test_basic_tokens(self):
        toks = tokenize("select a, b from t where x >= 1.5")
        kinds = [t.kind for t in toks]
        assert kinds[0] == "kw" and toks[0].text == "select"
        assert "num" in kinds and "cmp" in kinds

    def test_string_escape(self):
        toks = tokenize("select * from t where s = 'it''s'")
        assert any(t.kind == "str" and t.value == "it's" for t in toks)

    def test_date_literal_folded(self):
        toks = tokenize("where d >= date '1996-07-01'")
        dates = [t for t in toks if t.kind == "date"]
        assert len(dates) == 1
        assert dates[0].value == np.datetime64("1996-07-01")

    def test_interval_literal_folded(self):
        toks = tokenize("d + interval '3' month")
        ivs = [t for t in toks if t.kind == "interval"]
        assert ivs[0].value == (3, "month")

    def test_bad_date_rejected(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("where d >= date 'not-a-date'")

    def test_normalized_key_blanks_literals(self):
        k1 = normalized_key(tokenize("select * from t where x = 5"))
        k2 = normalized_key(tokenize("select * from t where x = 99"))
        k3 = normalized_key(tokenize("select * from t where y = 5"))
        assert k1 == k2
        assert k1 != k3

    def test_normalize_sql_collects_values(self):
        tokens = tokenize("select * from t where x = 5 and s = 'a' limit 3")
        slots, paramstyle = extract_slots(tokens)
        assert [value for _kind, value in slots] == [5, "a", 3]
        assert paramstyle is None
        assert normalized_key(tokens) == \
            "select * from t where x = ? and s = ? limit ?"


class TestParser:
    def test_full_shape(self):
        sel = parse(
            "select a, sum(b) as total from t, u "
            "where t.k = u.k and a > 5 group by a having sum(b) > 10 "
            "order by total desc limit 3 offset 1"
        )
        assert len(sel.items) == 2
        assert len(sel.tables) == 2
        assert len(sel.where) == 2
        assert (sel.limit.value, sel.offset.value) == (3, 1)
        assert (sel.limit.index, sel.offset.index) == (2, 3)
        assert not sel.order_by[0].ascending

    def test_between_in_like(self):
        sel = parse(
            "select * from t where a between 1 and 2 and b in (1, 2, 3) "
            "and c like 'x%' and d not like 'y%'"
        )
        assert len(sel.where) == 4

    def test_case_expression(self):
        sel = parse(
            "select case when a > 1 then b else 0 end from t"
        )
        assert sel.items[0].expr.__class__.__name__ == "Case"

    def test_distinct(self):
        assert parse("select distinct a from t").distinct

    def test_syntax_errors(self):
        for bad in [
            "select from t",
            "select a t",  # missing FROM keyword makes trailing junk
            "select a from t where",
            "select a from t limit x",
        ]:
            with pytest.raises(SqlSyntaxError):
                parse(bad)

    def test_literal_indexes_in_reading_order(self):
        sel = parse("select a from t where x = 7 and y = 8")
        assert sel.where[0].right.index < sel.where[1].right.index


class TestPlannerExecution:
    def test_scalar_count(self, sql_db):
        r = sql_db.execute(
            "select count(*) from orders where o_totalprice >= 500"
        )
        tp = sql_db.catalog.table("orders").column_array("o_totalprice")
        assert r.value.scalar() == int((tp >= 500).sum())

    def test_group_by_with_join_and_order(self, sql_db):
        r = sql_db.execute(
            "select c_segment, count(*) as n, sum(o_totalprice) as total "
            "from orders, customer where o_custkey = c_custkey "
            "group by c_segment order by total desc"
        )
        o = sql_db.catalog.table("orders")
        c = sql_db.catalog.table("customer")
        seg = c.column_array("c_segment")[o.column_array("o_custkey")]
        import collections
        agg = collections.defaultdict(lambda: [0, 0.0])
        for s, t in zip(seg, o.column_array("o_totalprice")):
            agg[s][0] += 1
            agg[s][1] += t
        expected = sorted(
            ((s, n, t) for s, (n, t) in agg.items()), key=lambda x: -x[2]
        )
        got = r.value.rows()
        assert [g[0] for g in got] == [e[0] for e in expected]
        assert all(abs(g[2] - e[2]) < 1e-6 for g, e in zip(got, expected))

    def test_date_interval_arithmetic(self, sql_db):
        r = sql_db.execute(
            "select count(*) from orders "
            "where o_orderdate >= date '1995-06-01' "
            "and o_orderdate < date '1995-06-01' + interval '2' month"
        )
        d = sql_db.catalog.table("orders").column_array("o_orderdate")
        expected = int(((d >= np.datetime64("1995-06-01"))
                        & (d < np.datetime64("1995-08-01"))).sum())
        assert r.value.scalar() == expected

    def test_distinct(self, sql_db):
        r = sql_db.execute("select distinct o_priority from orders "
                           "order by o_priority")
        assert [row[0] for row in r.value.rows()] == \
            ["HIGH", "LOW", "MEDIUM"]

    def test_having(self, sql_db):
        r = sql_db.execute(
            "select o_custkey, count(*) as n from orders "
            "group by o_custkey having count(*) > 40 order by n desc"
        )
        counts = np.bincount(
            sql_db.catalog.table("orders").column_array("o_custkey")
        )
        assert len(r.value) == int((counts > 40).sum())

    def test_in_and_like(self, sql_db):
        r = sql_db.execute(
            "select count(*) from orders "
            "where o_priority in ('HIGH', 'LOW')"
        )
        p = sql_db.catalog.table("orders").column_array("o_priority")
        assert r.value.scalar() == int(np.isin(p, ["HIGH", "LOW"]).sum())
        r2 = sql_db.execute(
            "select count(*) from customer where c_name like 'c1%'"
        )
        names = sql_db.catalog.table("customer").column_array("c_name")
        assert r2.value.scalar() == int(
            np.char.startswith(names, "c1").sum()
        )

    def test_limit_offset(self, sql_db):
        r = sql_db.execute(
            "select o_orderkey from orders order by o_orderkey limit 5 "
            "offset 2"
        )
        assert [row[0] for row in r.value.rows()] == [2, 3, 4, 5, 6]

    def test_row_level_arith_filter(self, sql_db):
        r = sql_db.execute(
            "select count(*) from orders "
            "where o_totalprice / 2 > 400"
        )
        tp = sql_db.catalog.table("orders").column_array("o_totalprice")
        assert r.value.scalar() == int((tp / 2 > 400).sum())

    def test_scalar_aggregate_expression(self, sql_db):
        r = sql_db.execute(
            "select sum(o_totalprice) / count(*) from orders"
        )
        tp = sql_db.catalog.table("orders").column_array("o_totalprice")
        assert r.value.scalar() == pytest.approx(tp.sum() / len(tp))


class TestTemplateCache:
    def test_instances_share_template_and_intermediates(self, sql_db):
        sql_db.execute(
            "select count(*) from orders where o_totalprice >= 100"
        )
        r = sql_db.execute(
            "select count(*) from orders where o_totalprice >= 900"
        )
        # Different literal, same template: the bind is reused at minimum.
        assert r.stats.hits >= 1
        r2 = sql_db.execute(
            "select count(*) from orders where o_totalprice >= 100"
        )
        assert r2.stats.exact_hits == r2.stats.n_marked

    def test_narrower_literal_subsumed(self, sql_db):
        sql_db.execute(
            "select count(*) from orders "
            "where o_totalprice between 100 and 900"
        )
        r = sql_db.execute(
            "select count(*) from orders "
            "where o_totalprice between 200 and 800"
        )
        assert r.stats.subsumed_hits >= 1
        tp = sql_db.catalog.table("orders").column_array("o_totalprice")
        assert r.value.scalar() == int(((tp >= 200) & (tp <= 800)).sum())


class TestPlannerErrors:
    def test_unknown_column(self, sql_db):
        with pytest.raises(SqlBindError):
            sql_db.execute("select nope from orders")

    def test_ambiguous_column(self, sql_db):
        db = Database()
        db.create_table("a", {"x": "int64"}, {"x": [1]})
        db.create_table("b", {"x": "int64"}, {"x": [1]})
        with pytest.raises(SqlBindError):
            db.execute("select x from a, b where a.x = b.x")

    def test_cartesian_rejected(self, sql_db):
        with pytest.raises(SqlError):
            sql_db.execute("select count(*) from orders, customer")

    def test_non_key_select_item_rejected(self, sql_db):
        with pytest.raises(SqlError):
            sql_db.execute(
                "select o_priority, o_custkey from orders "
                "group by o_priority"
            )
