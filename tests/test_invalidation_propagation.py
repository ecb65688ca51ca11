"""Update synchronisation tests: invalidation (§6.4) and propagation (§6.3)."""

import numpy as np

from repro import Database


def make_db(**kwargs):
    db = Database(**kwargs)
    db.create_table(
        "t", {"v": "float64", "w": "float64"},
        {"v": np.arange(1000) * 0.1, "w": np.arange(1000) * 1.0},
    )
    db.create_table(
        "u", {"x": "int64"}, {"x": np.arange(100)},
    )
    return db


def count_template(db, column="v", name="q"):
    q = db.builder(name)
    lo, hi = q.param("lo"), q.param("hi")
    q.scan("t")
    q.filter_range("t", column, lo=lo, hi=hi)
    q.select_scalar("n", q.agg_scalar("count"))
    return db.register_template(q.build())


def u_template(db):
    q = db.builder("uq")
    lo = q.param("lo")
    q.scan("u")
    q.filter_range("u", "x", lo=lo)
    q.select_scalar("n", q.agg_scalar("count"))
    return db.register_template(q.build())


class TestInvalidation:
    def test_insert_invalidates_table_entries(self):
        db = make_db()
        count_template(db)
        u_template(db)
        db.run_template("q", {"lo": 1.0, "hi": 50.0})
        db.run_template("uq", {"lo": 10})
        before = db.pool_entries
        db.insert("t", {"v": [999.0], "w": [1.0]})
        # All t-derived entries are gone; u-derived entries survive.
        survivors = db.recycler.pool.entries()
        assert all(
            all(tab != "t" for (tab, _c, _v) in e.value.sources)
            for e in survivors
        )
        assert any(
            any(tab == "u" for (tab, _c, _v) in e.value.sources)
            for e in survivors
        )
        assert db.pool_entries < before

    def test_query_after_insert_sees_new_rows(self):
        db = make_db()
        count_template(db)
        r1 = db.run_template("q", {"lo": 0.0, "hi": 1000.0})
        db.insert("t", {"v": [5.0], "w": [1.0]})
        r2 = db.run_template("q", {"lo": 0.0, "hi": 1000.0})
        assert r2.value.scalar() == r1.value.scalar() + 1

    def test_delete_invalidates_and_recomputes(self):
        db = make_db()
        count_template(db)
        r1 = db.run_template("q", {"lo": 0.0, "hi": 1000.0})
        db.delete_oids("t", [0, 1, 2])
        r2 = db.run_template("q", {"lo": 0.0, "hi": 1000.0})
        assert r2.value.scalar() == r1.value.scalar() - 3

    def test_update_column_invalidates_only_that_column(self):
        db = make_db()
        count_template(db, column="v", name="qv")
        count_template(db, column="w", name="qw")
        db.run_template("qv", {"lo": 0.0, "hi": 50.0})
        db.run_template("qw", {"lo": 0.0, "hi": 50.0})
        db.update_column("t", "w", [0], [123.0])
        remaining_cols = {
            col
            for e in db.recycler.pool.entries()
            for (tab, col, _v) in e.value.sources
            if tab == "t"
        }
        assert "w" not in remaining_cols
        assert "v" in remaining_cols

    def test_update_correctness_after_partial_invalidation(self):
        db = make_db()
        count_template(db, column="w", name="qw")
        db.run_template("qw", {"lo": 0.0, "hi": 10.0})
        db.update_column("t", "w", [500], [5.0])
        r = db.run_template("qw", {"lo": 0.0, "hi": 10.0})
        w = db.catalog.table("t").column_array("w")
        assert r.value.scalar() == int(((w >= 0) & (w <= 10)).sum())

    def test_drop_table_drops_dependent_entries(self):
        db = make_db()
        count_template(db)
        db.run_template("q", {"lo": 0.0, "hi": 9.0})
        db.drop_table("t")
        assert all(
            all(tab != "t" for (tab, _c, _v) in e.value.sources)
            for e in db.recycler.pool.entries()
        )


class TestPropagation:
    def test_append_propagates_select_entry(self):
        db = make_db(propagate_selects=True)
        count_template(db)
        db.run_template("q", {"lo": 10.0, "hi": 90.0})
        assert db.recycler.totals.propagated == 0
        db.insert("t", {"v": [50.0, 200.0], "w": [0.0, 0.0]})
        assert db.recycler.totals.propagated >= 1
        # The propagated entry answers the repeat exactly (no recompute of
        # the select) and includes the qualifying new row.
        r = db.run_template("q", {"lo": 10.0, "hi": 90.0})
        v = db.catalog.table("t").column_array("v")
        assert r.value.scalar() == int(((v >= 10.0) & (v <= 90.0)).sum())
        assert r.stats.exact_hits >= 1

    def test_propagated_entry_keeps_select_hit(self):
        db = make_db(propagate_selects=True)
        count_template(db)
        db.run_template("q", {"lo": 10.0, "hi": 90.0})
        db.insert("t", {"v": [55.5], "w": [0.0]})
        r = db.run_template("q", {"lo": 10.0, "hi": 90.0})
        select_entries = [
            e for e in db.recycler.pool.entries()
            if e.opname == "algebra.select"
        ]
        assert any(e.reuse_count > 0 for e in select_entries)

    def test_non_matching_delta_keeps_entry_unchanged(self):
        db = make_db(propagate_selects=True)
        count_template(db)
        r1 = db.run_template("q", {"lo": 10.0, "hi": 20.0})
        db.insert("t", {"v": [999.0], "w": [0.0]})  # outside the range
        r2 = db.run_template("q", {"lo": 10.0, "hi": 20.0})
        assert r2.value.scalar() == r1.value.scalar()

    def test_delete_falls_back_to_invalidation(self):
        db = make_db(propagate_selects=True)
        count_template(db)
        db.run_template("q", {"lo": 0.0, "hi": 99.0})
        db.delete_oids("t", [5])
        # Renumbering delta -> no propagation, full invalidation.
        t_entries = [
            e for e in db.recycler.pool.entries()
            if any(tab == "t" for (tab, _c, _v) in e.value.sources)
        ]
        assert t_entries == []
        r = db.run_template("q", {"lo": 0.0, "hi": 99.0})
        v = db.catalog.table("t").column_array("v")
        assert r.value.scalar() == int(((v >= 0.0) & (v <= 99.0)).sum())

    def test_propagation_drops_stale_children(self):
        db = make_db(propagate_selects=True)
        q = db.builder("q2")
        lo, hi = q.param("lo"), q.param("hi")
        q.scan("t")
        q.filter_range("t", "v", lo=lo, hi=hi)
        q.filter_range("t", "w", lo=0.0)  # child semijoin+select chain
        q.select_scalar("n", q.agg_scalar("count"))
        db.register_template(q.build())
        db.run_template("q2", {"lo": 10.0, "hi": 90.0})
        db.insert("t", {"v": [50.0], "w": [1.0]})
        r = db.run_template("q2", {"lo": 10.0, "hi": 90.0})
        t = db.catalog.table("t")
        v, w = t.column_array("v"), t.column_array("w")
        assert r.value.scalar() == int(
            ((v >= 10.0) & (v <= 90.0) & (w >= 0.0)).sum()
        )
