"""Database facade tests: DDL/DML surface, template cache, reports."""

import numpy as np
import pytest

from repro import Database
from repro.errors import CatalogError, UpdateError


@pytest.fixture
def db():
    d = Database()
    d.create_table("t", {"a": "int64", "b": "float64"},
                   {"a": np.arange(50), "b": np.arange(50) * 0.5})
    return d


class TestDdl:
    def test_create_and_query(self, db):
        assert db.execute("select count(*) from t").value.scalar() == 50

    def test_create_duplicate_rejected(self, db):
        with pytest.raises(CatalogError):
            db.create_table("t", {"a": "int64"}, {"a": [1]})

    def test_drop_then_query_fails(self, db):
        db.drop_table("t")
        with pytest.raises(CatalogError):
            db.catalog.table("t")

    def test_foreign_key_declaration(self, db):
        db.create_table("u", {"ref": "int64"}, {"ref": [1, 2, 3]})
        db.add_foreign_key("fk", "u", "ref", "t", "a")
        idx = db.catalog.bind_idx("u", "ref")
        assert list(idx.tail_values()) == [1, 2, 3]


class TestDml:
    def test_insert_then_query(self, db):
        db.insert("t", {"a": [100], "b": [1.0]})
        assert db.execute("select count(*) from t").value.scalar() == 51

    def test_delete_then_query(self, db):
        db.delete_oids("t", [0, 1])
        assert db.execute("select count(*) from t").value.scalar() == 48

    def test_update_column_then_query(self, db):
        db.update_column("t", "b", [0], [999.0])
        r = db.execute("select count(*) from t where b >= 999")
        assert r.value.scalar() == 1

    def test_bad_insert_rejected(self, db):
        with pytest.raises(UpdateError):
            db.insert("t", {"a": [1]})

    def test_dml_without_recycler(self):
        d = Database(recycle=False)
        d.create_table("t", {"a": "int64"}, {"a": [1, 2]})
        d.insert("t", {"a": [3]})
        assert d.execute("select count(*) from t").value.scalar() == 3


class TestTemplates:
    def test_register_and_run(self, db):
        q = db.builder("tmpl")
        lo = q.param("lo")
        q.scan("t")
        q.filter_range("t", "a", lo=lo)
        q.select_scalar("n", q.agg_scalar("count"))
        db.register_template(q.build())
        assert db.has_template("tmpl")
        assert db.run_template("tmpl", {"lo": 40}).value.scalar() == 10

    def test_unknown_template(self, db):
        with pytest.raises(CatalogError):
            db.run_template("nope", {})

    def test_run_unregistered_program_directly(self, db):
        q = db.builder("direct")
        q.scan("t")
        q.select_scalar("n", q.agg_scalar("count"))
        assert db.run_template(q.build()).value.scalar() == 50


class TestRecyclerSurface:
    def test_pool_properties_without_recycler(self):
        d = Database(recycle=False)
        assert d.pool_bytes == 0
        assert d.pool_entries == 0
        assert d.recycler_report() is None
        assert d.reset_recycler() == 0

    def test_sql_cache_shares_pool_across_literals(self, db):
        db.execute("select count(*) from t where a >= 10")
        r = db.execute("select count(*) from t where a >= 20")
        assert r.stats.hits >= 1
        assert r.stats.subsumed_hits >= 1  # narrower range subsumed

    def test_report_totals_match_pool(self, db):
        db.execute("select count(*) from t where a >= 10")
        report = db.recycler_report()
        assert report.total.entries == db.pool_entries
        assert report.total.nbytes == db.pool_bytes


class TestResultSetSurface:
    def test_rows_and_column(self, db):
        r = db.execute("select a, b from t where a < 3 order by a")
        assert r.value.rows() == [(0, 0.0), (1, 0.5), (2, 1.0)]
        assert list(r.value.column("a")) == [0, 1, 2]

    def test_scalar_errors(self, db):
        r = db.execute("select a from t where a < 3")
        with pytest.raises(Exception):
            r.value.scalar()

    def test_unknown_column_rejected(self, db):
        r = db.execute("select a from t where a < 3")
        with pytest.raises(Exception):
            r.value.column("zzz")
