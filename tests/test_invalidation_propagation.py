"""Update synchronisation tests: immediate invalidation (§6.4)."""

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



def test_every_write_passes_through_synchronize(monkeypatch):
    """``repro.db.synchronize`` is the one invalidation seam: each DML
    method and ``drop_table`` calls it once, and what it returns adds up
    to the recycler's ``invalidations`` total."""
    from repro import db as db_mod

    dropped = []
    synchronize = db_mod.synchronize

    def counted(recycler, catalog, table):
        removed = synchronize(recycler, catalog, table)
        dropped.append(removed)
        return removed

    monkeypatch.setattr(db_mod, "synchronize", counted)
    db = make_db()
    count_template(db)
    writes = [
        lambda: db.insert("t", {"v": [5.0], "w": [0.0]}),
        lambda: db.delete_oids("t", [3]),
        lambda: db.update_column("t", "v", [1], [2.5]),
        lambda: db.drop_table("t"),
    ]
    for write in writes:
        db.run_template("q", {"lo": 0.0, "hi": 50.0})
        calls = len(dropped)
        write()
        assert len(dropped) == calls + 1
        assert dropped[-1] > 0
    assert sum(dropped) == db.recycler.totals.invalidations
