"""Tests for tables, the catalogue, versions, FK indices, and deltas."""

import numpy as np
import pytest

from repro.errors import CatalogError, StorageError, UpdateError
from repro.storage.catalog import Catalog, ColumnDef, TableDef
from repro.storage.deltas import TableDelta
from repro.storage.table import Table


def make_catalog():
    cat = Catalog()
    cat.create_table(
        TableDef("t", [ColumnDef("k", "int64"), ColumnDef("v", "float64")]),
        {"k": np.arange(10), "v": np.linspace(0, 1, 10)},
    )
    return cat


class TestTable:
    def test_ragged_rejected(self):
        with pytest.raises(StorageError):
            Table("t", {"a": np.arange(3), "b": np.arange(4)})

    def test_bind_returns_same_bat_until_update(self):
        cat = make_catalog()
        b1 = cat.bind("t", "k")
        b2 = cat.bind("t", "k")
        assert b1 is b2
        cat.insert("t", {"k": [10], "v": [1.5]})
        b3 = cat.bind("t", "k")
        assert b3 is not b1
        assert b3.token != b1.token

    def test_bind_sources_carry_version(self):
        cat = make_catalog()
        assert cat.bind("t", "k").sources == {("t", "k", 0)}
        cat.insert("t", {"k": [10], "v": [0.0]})
        assert cat.bind("t", "k").sources == {("t", "k", 1)}

    def test_sorted_detection(self):
        cat = make_catalog()
        assert cat.bind("t", "k").tail_sorted
        cat.insert("t", {"k": [0], "v": [0.0]})  # breaks sortedness
        assert not cat.bind("t", "k").tail_sorted

    def test_insert_validates_columns(self):
        cat = make_catalog()
        with pytest.raises(UpdateError):
            cat.insert("t", {"k": [1]})
        with pytest.raises(UpdateError):
            cat.insert("t", {"k": [1], "v": [1.0], "x": [2]})
        with pytest.raises(UpdateError):
            cat.insert("t", {"k": [1, 2], "v": [1.0]})

    def test_insert_bumps_all_versions(self):
        cat = make_catalog()
        cat.insert("t", {"k": [99], "v": [9.9]})
        t = cat.table("t")
        assert t.versions == {"k": 1, "v": 1}
        assert t.nrows == 11

    def test_delete_compacts_and_renumbers(self):
        cat = make_catalog()
        delta = cat.delete_oids("t", [0, 2])
        assert delta.renumbered
        t = cat.table("t")
        assert t.nrows == 8
        assert list(t.column_array("k")[:3]) == [1, 3, 4]

    def test_delete_out_of_range(self):
        cat = make_catalog()
        with pytest.raises(UpdateError):
            cat.delete_oids("t", [100])

    def test_update_column_bumps_only_that_column(self):
        cat = make_catalog()
        cat.update_column("t", "v", [1], [42.0])
        t = cat.table("t")
        assert t.versions == {"k": 0, "v": 1}
        assert t.column_array("v")[1] == 42.0

    def test_select_rows(self):
        cat = make_catalog()
        rows = cat.table("t").select_rows([2, 4])
        assert list(rows["k"]) == [2, 4]


class TestCatalog:
    def test_duplicate_table_rejected(self):
        cat = make_catalog()
        with pytest.raises(CatalogError):
            cat.create_table(
                TableDef("t", [ColumnDef("k", "int64")]), {"k": [1]}
            )

    def test_unknown_table(self):
        cat = make_catalog()
        with pytest.raises(CatalogError):
            cat.table("nope")

    def test_data_declaration_mismatch(self):
        cat = Catalog()
        with pytest.raises(CatalogError):
            cat.create_table(
                TableDef("x", [ColumnDef("a", "int64")]), {"b": [1]}
            )

    def test_drop_table_removes_fks(self):
        cat = make_catalog()
        cat.create_table(
            TableDef("r", [ColumnDef("rk", "int64")]), {"rk": np.arange(5)}
        )
        cat.add_foreign_key("fk", "t", "k", "r", "rk")
        cat.drop_table("r")
        assert cat.foreign_key_for("t", "k") is None


class TestJoinIndex:
    def make(self):
        cat = Catalog()
        cat.create_table(
            TableDef("pk", [ColumnDef("id", "int64"),
                            ColumnDef("x", "int64")]),
            {"id": np.array([10, 20, 30]), "x": np.array([1, 2, 3])},
        )
        cat.create_table(
            TableDef("fk", [ColumnDef("ref", "int64")]),
            {"ref": np.array([20, 10, 30, 20])},
        )
        cat.add_foreign_key("f", "fk", "ref", "pk", "id")
        return cat

    def test_index_maps_to_pk_oids(self):
        cat = self.make()
        idx = cat.bind_idx("fk", "ref")
        assert list(idx.tail_values()) == [1, 0, 2, 1]

    def test_index_cached_until_update(self):
        cat = self.make()
        a = cat.bind_idx("fk", "ref")
        assert cat.bind_idx("fk", "ref") is a
        cat.insert("fk", {"ref": [10]})
        b = cat.bind_idx("fk", "ref")
        assert b is not a
        assert list(b.tail_values()) == [1, 0, 2, 1, 0]

    def test_missing_match_yields_minus_one(self):
        cat = self.make()
        cat.insert("fk", {"ref": [99]})
        idx = cat.bind_idx("fk", "ref")
        assert idx.tail_values()[-1] == -1

    def test_undeclared_fk_rejected(self):
        cat = self.make()
        with pytest.raises(CatalogError):
            cat.bind_idx("pk", "x")


class TestTableDelta:
    def test_append_only_detection(self):
        assert TableDelta("t", insert_start=0,
                          inserted={"a": np.arange(1)}).append_only
        assert not TableDelta(
            "t", deleted_oids=np.array([1]), renumbered=True
        ).append_only

    def test_catalog_insert_returns_delta(self):
        cat = make_catalog()
        delta = cat.insert("t", {"k": [77], "v": [7.7]})
        assert delta.table == "t" and delta.n_inserted == 1
        assert delta.append_only
