"""TPC-H workload tests: generator invariants, all 22 queries, refresh."""

import numpy as np
import pytest

from repro import Database
from repro.workloads.tpch import (
    ParamGenerator,
    RefreshStream,
    TEMPLATE_BUILDERS,
    build_templates,
    load_tpch,
)


class TestGenerator:
    def test_cardinalities(self, tpch_data):
        sf = 0.005
        assert len(tpch_data["region"]["r_regionkey"]) == 5
        assert len(tpch_data["nation"]["n_nationkey"]) == 25
        assert len(tpch_data["orders"]["o_orderkey"]) == \
            max(1500, int(1_500_000 * sf))
        assert len(tpch_data["partsupp"]["ps_partkey"]) == \
            4 * len(tpch_data["part"]["p_partkey"])

    def test_fk_integrity(self, tpch_data):
        orders = set(tpch_data["orders"]["o_orderkey"].tolist())
        assert set(tpch_data["lineitem"]["l_orderkey"].tolist()) <= orders
        nations = set(tpch_data["nation"]["n_nationkey"].tolist())
        assert set(tpch_data["customer"]["c_nationkey"].tolist()) <= nations
        assert set(tpch_data["supplier"]["s_nationkey"].tolist()) <= nations

    def test_lineitem_partsupp_pairs_exist(self, tpch_data):
        ps_pairs = set(zip(tpch_data["partsupp"]["ps_partkey"].tolist(),
                           tpch_data["partsupp"]["ps_suppkey"].tolist()))
        li_pairs = set(zip(tpch_data["lineitem"]["l_partkey"].tolist(),
                           tpch_data["lineitem"]["l_suppkey"].tolist()))
        assert li_pairs <= ps_pairs

    def test_one_third_of_customers_orderless(self, tpch_data):
        n_cust = len(tpch_data["customer"]["c_custkey"])
        with_orders = len(set(tpch_data["orders"]["o_custkey"].tolist()))
        assert with_orders < n_cust  # Q13/Q22 need order-less customers

    def test_dates_within_domain(self, tpch_data):
        d = tpch_data["orders"]["o_orderdate"]
        assert d.min() >= np.datetime64("1992-01-01")
        assert d.max() <= np.datetime64("1998-12-31")

    def test_totalprice_derived_from_lines(self, tpch_data):
        li = tpch_data["lineitem"]
        charge = (li["l_extendedprice"] * (1 - li["l_discount"])
                  * (1 + li["l_tax"]))
        total = np.bincount(
            li["l_orderkey"], weights=charge,
            minlength=len(tpch_data["orders"]["o_orderkey"]),
        )
        assert np.allclose(tpch_data["orders"]["o_totalprice"],
                           np.round(total, 2), atol=0.02)

    def test_deterministic(self):
        from repro.workloads.tpch import generate_tpch

        a = generate_tpch(sf=0.005, seed=3)
        b = generate_tpch(sf=0.005, seed=3)
        assert np.array_equal(a["lineitem"]["l_quantity"],
                              b["lineitem"]["l_quantity"])


class TestParamGenerator:
    def test_all_queries_have_rules(self):
        pg = ParamGenerator()
        for name in TEMPLATE_BUILDERS:
            params = pg.params_for(name)
            assert isinstance(params, dict) and params

    def test_q7_nations_distinct(self):
        pg = ParamGenerator()
        for _ in range(20):
            p = pg.params_for("q07")
            assert p["nation1"] != p["nation2"]

    def test_q6_discount_window(self):
        pg = ParamGenerator()
        p = pg.params_for("q06")
        assert p["disc_hi"] - p["disc_lo"] == pytest.approx(0.02)

    def test_unknown_query_rejected(self):
        with pytest.raises(ValueError):
            ParamGenerator().params_for("q99")


@pytest.mark.parametrize("name", sorted(TEMPLATE_BUILDERS))
def test_query_runs_and_recycles(tpch_db, name):
    pg = ParamGenerator(seed=3, sf=0.005)
    params = pg.params_for(name)
    r1 = tpch_db.run_template(name, params)
    assert r1.stats.n_marked > 0
    r2 = tpch_db.run_template(name, params)
    # Exact repetition hits on every monitored instruction.
    assert r2.stats.hits == r2.stats.n_marked
    assert r2.value.rows() == r1.value.rows()


@pytest.mark.parametrize("name", ["q01", "q03", "q06", "q10", "q18"])
def test_recycled_equals_naive(name):
    pg = ParamGenerator(seed=5, sf=0.005)
    params = [pg.params_for(name) for _ in range(3)]
    db_r = Database()
    load_tpch(db_r, sf=0.005, seed=11)
    build_templates(db_r, queries=[name])
    db_n = Database(recycle=False)
    load_tpch(db_n, sf=0.005, seed=11)
    build_templates(db_n, queries=[name])
    for p in params:
        a = db_r.run_template(name, p).value
        b = db_n.run_template(name, p).value
        assert a.names == b.names
        assert a.rows() == b.rows()


def test_q6_value_against_numpy(tpch_db):
    p = ParamGenerator(seed=9, sf=0.005).params_for("q06")
    r = tpch_db.run_template("q06", p)
    li = tpch_db.catalog.table("lineitem")
    ship = li.column_array("l_shipdate")
    disc = li.column_array("l_discount")
    qty = li.column_array("l_quantity")
    ext = li.column_array("l_extendedprice")
    import numpy as np
    from repro.mal.operators.calc import add_months
    hi = add_months(p["date"], 12)
    mask = ((ship >= p["date"]) & (ship < hi)
            & (disc >= p["disc_lo"]) & (disc <= p["disc_hi"])
            & (qty < p["quantity"]))
    expected = float((ext[mask] * disc[mask]).sum())
    got = r.value.scalar()
    if np.isnan(got):
        assert expected == 0.0
    else:
        assert got == pytest.approx(expected)


def test_q18_inter_query_reuse(tpch_db):
    """The paper's Fig. 4b: the lineitem grouping is parameter-free."""
    pg = ParamGenerator(seed=2, sf=0.005)
    tpch_db.run_template("q18", pg.params_for("q18"))
    r = tpch_db.run_template("q18", pg.params_for("q18"))
    assert r.stats.hit_ratio > 0.5


def test_q11_intra_query_reuse(tpch_db):
    """The paper's Fig. 4a: the total sub-query duplicates the stream."""
    pg = ParamGenerator(seed=2, sf=0.005)
    r = tpch_db.run_template("q11", pg.params_for("q11"))
    assert r.stats.local_hits > 0


class TestRefresh:
    def test_rf1_rf2_roundtrip(self, tpch_db):
        orders = tpch_db.catalog.table("orders")
        before = orders.nrows
        rs = RefreshStream(tpch_db, orders_per_block=8)
        stats = rs.update_block()
        assert stats["inserted_lines"] > 0
        assert stats["deleted_lines"] > 0
        assert orders.nrows == before  # 8 in, 8 out

    def test_update_block_invalidates_pool(self, tpch_db):
        pg = ParamGenerator(seed=2, sf=0.005)
        tpch_db.run_template("q01", pg.params_for("q01"))
        lineitem_entries = [
            e for e in tpch_db.recycler.pool.entries()
            if any(t == "lineitem" for (t, _c, _v) in e.value.sources)
        ]
        assert lineitem_entries
        RefreshStream(tpch_db).update_block()
        lineitem_entries = [
            e for e in tpch_db.recycler.pool.entries()
            if any(t == "lineitem" for (t, _c, _v) in e.value.sources)
        ]
        assert lineitem_entries == []

    def test_queries_correct_after_updates(self, tpch_db):
        pg = ParamGenerator(seed=2, sf=0.005)
        rs = RefreshStream(tpch_db)
        p = pg.params_for("q01")
        tpch_db.run_template("q01", p)
        rs.update_block()
        r = tpch_db.run_template("q01", p)
        # Cross-check one aggregate against numpy on the updated table.
        li = tpch_db.catalog.table("lineitem")
        from repro.mal.operators.calc import mtime_adddays

        hi = mtime_adddays(None, np.datetime64("1998-12-01"), -p["delta"])
        ship = li.column_array("l_shipdate")
        qty = li.column_array("l_quantity")
        flags = li.column_array("l_returnflag")
        status = li.column_array("l_linestatus")
        mask = ship <= hi
        expected = {}
        for f, s, v in zip(flags[mask], status[mask], qty[mask]):
            expected[(f, s)] = expected.get((f, s), 0.0) + v
        got = {
            (row[0], row[1]): row[2] for row in r.value.rows()
        }
        assert set(got) == set(expected)
        for k in expected:
            assert got[k] == pytest.approx(expected[k])
