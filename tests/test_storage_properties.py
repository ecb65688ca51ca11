"""Property tests for the write path of the storage layer.

* A table's row log (inserts and deletes applied to each column on its
  first read) must equal an eager reference that rewrites every column
  on every write, under random interleavings of ``insert``,
  ``delete_oids`` and ``update_column`` with reads of random column
  subsets in between.
* A join index must equal the ``argsort`` + ``searchsorted`` reference on
  any keys: dense, sparse, duplicated, unmatched, negative, unsigned,
  empty.
* ``Recycler.on_update`` visits only the written table's entries and must
  drop the same entries, in the same order, as a scan of the whole pool;
  every entry a write leaves in the pool is unchanged by it.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core.recycler import Recycler
from repro.errors import UpdateError
from repro.storage.catalog import Catalog, ColumnDef, TableDef
from repro.storage.table import Table

COLUMNS = {"k": "int64", "u": "uint32", "f": "float64", "b": "bool",
           "s": "U3"}


def column_values(rng: np.random.Generator, column: str, n: int,
                  width: int = 3) -> np.ndarray:
    if column == "k":
        return rng.integers(-5, 5, n).astype(np.int64)
    if column == "u":
        return rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32)
    if column == "f":
        return rng.random(n)
    if column == "b":
        return rng.random(n) < 0.5
    return np.array(["".join(rng.choice(list("abc"), width))
                     for _ in range(n)], dtype=f"U{max(width, 1)}")


def is_sorted(values: np.ndarray) -> bool:
    items = values.tolist()
    return all(a <= b for a, b in zip(items, items[1:]))


class EagerTable:
    """The reference: every write rewrites every column at once."""

    def __init__(self, columns):
        self.columns = {c: v.copy() for c, v in columns.items()}

    @property
    def nrows(self) -> int:
        return len(self.columns["k"])

    def insert(self, rows):
        for c, v in rows.items():
            self.columns[c] = np.concatenate([self.columns[c], v])

    def delete(self, oids):
        keep = np.ones(self.nrows, dtype=bool)
        keep[oids] = False
        self.columns = {c: v[keep] for c, v in self.columns.items()}

    def update(self, column, oids, values):
        col = self.columns[column]
        col = col.astype(np.result_type(col, values))
        col[oids] = values
        self.columns[column] = col


op_seeds = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "update", "read"]),
              st.integers(0, 2**31)),
    max_size=40)


@settings(max_examples=120, deadline=None)
@given(n0=st.integers(0, 12), ops=op_seeds, seed=st.integers(0, 2**31))
def test_row_log_equals_eager_reference(n0, ops, seed):
    rng = np.random.default_rng(seed)
    init = {c: column_values(rng, c, n0) for c in COLUMNS}
    table = Table("t", init)
    ref = EagerTable(init)
    # "s" is read only at the end: it catches up after many writes, or
    # through the log bound.
    readable = [c for c in COLUMNS if c != "s"]
    for kind, op_seed in ops:
        r = np.random.default_rng(op_seed)
        if kind == "insert":
            n = int(r.integers(0, 6))
            width = int(r.integers(1, 6))        # > 3 widens "s"
            rows = {c: column_values(r, c, n, width) for c in COLUMNS}
            before = dict(table.versions)
            table.insert(rows)
            ref.insert(rows)
            assert table.versions == {c: v + 1 for c, v in before.items()}
        elif kind == "delete":
            n = int(r.integers(0, 5))
            oids = r.integers(-1, ref.nrows + 2, n)
            if n and (oids.min() < 0 or oids.max() >= ref.nrows):
                with pytest.raises(UpdateError):
                    table.delete_oids(oids)
                continue
            table.delete_oids(oids)
            ref.delete(np.unique(oids))
        elif kind == "update":
            if not ref.nrows:
                continue
            column = str(r.choice(list(COLUMNS)))
            oids = r.integers(0, ref.nrows, int(r.integers(1, 4)))
            values = column_values(r, column, len(oids),
                                   int(r.integers(1, 6)))
            table.update_column(column, oids, values)
            ref.update(column, oids, values)
        else:
            for c in r.choice(readable, int(r.integers(1, 4)),
                              replace=False):
                c = str(c)
                how = int(r.integers(0, 3))
                if how == 0:
                    got = table.column_array(c)
                elif how == 1:
                    bat = table.bind(c)
                    got = bat.tail_values()
                    assert bat.tail_sorted == is_sorted(ref.columns[c])
                    assert len(bat) == ref.nrows
                else:
                    assert table.column_sorted(c) == \
                        is_sorted(ref.columns[c])
                    got = table.column_array(c)
                assert got.dtype == ref.columns[c].dtype
                assert np.array_equal(got, ref.columns[c])
        assert table.nrows == ref.nrows
        # The log bound: never more pending rows than the table holds.
        assert table._log_rows <= table.nrows
    for c in COLUMNS:
        got = table.column_array(c)
        assert got.dtype == ref.columns[c].dtype
        assert np.array_equal(got, ref.columns[c])
    assert not table._log and table._log_rows == 0


def test_unread_column_catches_up_at_the_log_bound():
    table = Table("t", {"a": np.arange(10), "b": np.arange(10)})
    for d in range(1, 6):
        table.delete_oids([0])
        table.column_array("a")
        # "b" is unread: it pins the deletes, d rows against 10 - d.
        assert len(table._log) == d and table._log_rows == d
    table.delete_oids([0])          # 6 pending rows > 4 rows: catch up
    assert not table._log and table._log_rows == 0
    assert list(table._columns["b"]) == [6, 7, 8, 9]
    assert table.nrows == 4


def test_keep_mask_is_shared_by_columns_at_one_position():
    table = Table("t", {c: np.arange(50) for c in "abc"})
    table.insert({c: [50, 51] for c in "abc"})
    table.delete_oids([0, 7])
    a = table.column_array("a")
    (keep,) = table._keeps.values()
    table.column_array("b")
    assert table._keeps[0] is keep
    assert list(a[:3]) == [1, 2, 3] and list(a[-2:]) == [50, 51]


def test_insert_keeps_its_own_copy_of_the_rows():
    table = Table("t", {"a": np.arange(3)})
    rows = np.array([7, 8])
    table.insert({"a": rows})
    rows[:] = -1
    assert list(table.column_array("a")) == [0, 1, 2, 7, 8]


def test_concurrent_binds_after_a_write_share_one_token():
    table = Table("t", {"a": np.arange(1000), "b": np.arange(1000)})
    table.insert({"a": np.arange(5), "b": np.arange(5)})
    table.delete_oids([3, 500])
    barrier = threading.Barrier(8)
    bats = []

    def reader():
        barrier.wait()
        bats.append(table.bind("a"))

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({b.token for b in bats}) == 1
    expected = np.delete(np.concatenate([np.arange(1000), np.arange(5)]),
                         [3, 500])
    assert np.array_equal(bats[0].tail_values(), expected)


# ----------------------------------------------------------------------
# Join indices
# ----------------------------------------------------------------------
def reference_targets(fk_vals: np.ndarray, pk_vals: np.ndarray):
    """The argsort + searchsorted join index."""
    if not len(pk_vals):
        return np.full(len(fk_vals), -1, dtype=np.int64)
    order = np.argsort(pk_vals, kind="stable")
    pos = np.searchsorted(pk_vals[order], fk_vals)
    tgt = order[np.clip(pos, 0, len(pk_vals) - 1)]
    return np.where(pk_vals[tgt] == fk_vals, tgt, -1).astype(np.int64)


KEY_DTYPES = ["int64", "int32", "int8", "uint8", "uint32", "uint64"]


@st.composite
def key_columns(draw):
    dtype = np.dtype(draw(st.sampled_from(KEY_DTYPES)))
    info = np.iinfo(dtype)
    n = draw(st.integers(0, 40))
    mode = draw(st.sampled_from(["dense", "shifted", "top", "sparse",
                                 "dup", "extreme"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if mode == "dense":
        pk = rng.permutation(n)
    elif mode == "shifted":
        lo = int(rng.integers(max(info.min, -1000), 1000))
        pk = rng.permutation(n) + lo
    elif mode == "top":
        pk = int(info.max) - rng.permutation(n).astype(object)
    elif mode == "sparse":
        pk = rng.choice(10 * n + 1, n, replace=False) * 7
    elif mode == "dup":
        pk = rng.integers(0, max(n // 2, 1), n)
    else:
        pk = np.array([info.min, info.max] * (n // 2), dtype=object)
    pk = np.clip(np.asarray(pk, dtype=object), info.min, info.max)
    pk = pk.astype(dtype)
    extra = rng.integers(-3, 3 * n + 5, draw(st.integers(0, 30)))
    fk_pool = np.concatenate([pk.astype(object),
                              np.asarray(extra, dtype=object),
                              np.array([info.min, info.max], dtype=object)])
    fk = rng.choice(fk_pool, draw(st.integers(0, 50))) if len(fk_pool) \
        else np.empty(0, dtype=object)
    fk = np.clip(fk, info.min, info.max).astype(dtype)
    return pk, fk


@settings(max_examples=200, deadline=None)
@given(cols=key_columns())
def test_join_index_equals_searchsorted_reference(cols):
    pk, fk = cols
    cat = Catalog()
    cat.create_table(TableDef("p", [ColumnDef("id", str(pk.dtype))]),
                     {"id": pk})
    cat.create_table(TableDef("f", [ColumnDef("ref", str(fk.dtype))]),
                     {"ref": fk})
    cat.add_foreign_key("fk", "f", "ref", "p", "id")
    got = cat.bind_idx("f", "ref").tail_values()
    want = reference_targets(fk, pk)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Invalidation by table
# ----------------------------------------------------------------------
def full_scan_stale(recycler, table, catalog):
    current = (catalog.table(table).versions
               if catalog.has_table(table) else {})
    return [e for e in recycler.pool.entries()
            if any(t == table and current.get(c) != v
                   for t, c, v in e.value.sources)]


def pooled_bats(recycler):
    """Each pooled entry with its signature, BAT, sources, head and tail
    objects, and a copy of the head and tail values."""
    return {id(e): (e, e.sig, e.value, e.value.sources, e.value.head,
                    e.value.tail, e.value.head_values().copy(),
                    e.value.tail_values().copy())
            for e in recycler.pool.entries()}


def same_values(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_on_update_drops_what_a_full_scan_finds(tiny_db, monkeypatch):
    db = Database()
    for name in ("orders", "lineitem"):
        t = tiny_db.catalog.table(name)
        db.create_table(
            name, {c: str(t.column_array(c).dtype) for c in t.column_names},
            {c: t.column_array(c) for c in t.column_names})
    db.add_foreign_key("fk_lo", "lineitem", "l_orderkey",
                       "orders", "o_orderkey")
    calls = []
    drop = Recycler.drop

    def checked_drop(self, entries):
        calls.append((list(entries), full_scan_stale(self, *pending)))
        return drop(self, entries)

    monkeypatch.setattr(Recycler, "drop", checked_drop)
    rng = np.random.default_rng(5)
    dropped = 0
    queries = [
        "select count(*) from lineitem where l_qty >= :lo and l_qty <= :hi",
        "select sum(l_qty) from lineitem, orders where l_orderkey = "
        "o_orderkey and o_date >= :lo and o_date < :hi",
        "select count(*) from orders where o_date >= :lo and o_cust < :hi",
    ]
    for _ in range(12):
        for q in queries:
            lo = int(rng.integers(0, 40))
            db.execute(q, {"lo": lo, "hi": lo + int(rng.integers(1, 30))})
        table = str(rng.choice(["orders", "lineitem"]))
        n = db.catalog.table(table).nrows
        pending = (table, db.catalog)
        calls.clear()
        before = pooled_bats(db.recycler)
        if rng.random() < 0.5 and table == "lineitem":
            db.insert("lineitem", {"l_orderkey": [1, 2],
                                   "l_qty": [3.0, 4.0],
                                   "l_flag": ["A", "N"]})
        elif rng.random() < 0.5:
            db.delete_oids(table, rng.integers(0, n, 3))
        else:
            col = "l_qty" if table == "lineitem" else "o_date"
            db.update_column(table, col, [0, 1], [1, 2])
        got, want = calls[-1]
        assert [id(e) for e in got] == [id(e) for e in want]
        dropped += len(got)
        # Pooled intermediates are immutable: a survivor is the very BAT
        # it was, over the same arrays, under the same signature.
        survivors = [e for e in db.recycler.pool.entries()
                     if id(e) in before and before[id(e)][0] is e]
        assert survivors
        for e in survivors:
            _, sig, value, sources, head, tail, heads, tails = before[id(e)]
            assert e.sig == sig and e.value is value
            assert value.sources == sources
            assert value.head is head and value.tail is tail
            assert same_values(value.head_values(), heads)
            assert same_values(value.tail_values(), tails)
        db.recycler.check_invariants()
    assert dropped
