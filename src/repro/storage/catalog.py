"""The SQL catalogue: schemas, tables, and foreign-key join indices.

MonetDB plans access persistent data with ``sql.bind`` (columns) and
``sql.bindIdxbat`` (join indices, §2.2).  The catalogue resolves both.  Join
indices map each foreign-key row oid to the matching primary-key row oid and
are rebuilt lazily whenever either side of the constraint changes version.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CatalogError, UpdateError
from repro.storage.bat import BAT, Dense
from repro.storage.table import Table


@dataclass(frozen=True)
class ColumnDef:
    """Declared column: name plus a numpy dtype string (e.g. ``"int64"``)."""

    name: str
    dtype: str


@dataclass
class TableDef:
    """Declared table: a name and its columns."""

    name: str
    columns: List[ColumnDef]


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint backed by a join index."""

    name: str
    fk_table: str
    fk_column: str
    pk_table: str
    pk_column: str


def _key_table(pk_vals: np.ndarray) -> Optional[Tuple[int, np.ndarray]]:
    """``(lo, table)`` with ``table[k - lo]`` the oid of primary key *k*
    and ``table[-1] == -1``, when the keys are unique integers (cast
    safely to int64) whose range is at most 4 x their number; else None.
    """
    if (not len(pk_vals) or pk_vals.dtype.kind not in "iu"
            or not np.can_cast(pk_vals.dtype, np.int64)):
        return None
    lo, hi = int(pk_vals.min()), int(pk_vals.max())
    span = hi - lo + 1
    if span > 4 * len(pk_vals):
        return None
    table = np.full(span + 1, -1, dtype=np.int64)
    table[pk_vals.astype(np.int64, copy=False) - lo] = np.arange(
        len(pk_vals))
    if np.count_nonzero(table >= 0) != len(pk_vals):
        return None                     # duplicate keys
    return lo, table


def _join_targets(fk_vals: np.ndarray, pk_vals: np.ndarray) -> np.ndarray:
    """The oid of the primary key equal to each foreign key, -1 where none
    is (the first such oid when keys repeat).

    Dense integer keys (TPC-H's are 0..n-1) take one lookup in a table
    indexed by key; others binary-search the sorted primary keys.
    """
    keyed = _key_table(pk_vals)
    if keyed is not None and fk_vals.dtype.kind in "iu" \
            and np.can_cast(fk_vals.dtype, np.int64):
        lo, table = keyed
        span = len(table) - 1
        offsets = fk_vals.astype(np.int64, copy=False) - lo
        # Out of range (a wrapped difference included) -> the -1 slot.
        offsets[(offsets < 0) | (offsets >= span)] = span
        return table[offsets]
    if not len(pk_vals):
        return np.full(len(fk_vals), -1, dtype=np.int64)
    order = np.argsort(pk_vals, kind="stable")
    # Each fk value binary-searches the sorted pk column.
    pos = np.searchsorted(pk_vals[order], fk_vals)
    tgt = order[np.clip(pos, 0, len(pk_vals) - 1)]
    return np.where(pk_vals[tgt] == fk_vals, tgt, -1).astype(np.int64)


class Catalog:
    """Registry of tables and foreign keys for one database."""

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        #: Bumped by every DROP TABLE — the one DDL that can invalidate
        #: a compiled plan (it also drops the table's foreign keys); a
        #: plan planned at an older version is stale.
        self.schema_version = 0
        self._fkeys: Dict[str, ForeignKey] = {}
        self._fkeys_by_pair: Dict[Tuple[str, str], ForeignKey] = {}
        # Join-index cache: name -> (fk_version, pk_version, BAT)
        self._idx_cache: Dict[str, Tuple[int, int, BAT]] = {}
        # Same token-splitting hazard as Table._bind_lock: two concurrent
        # readers must not both rebuild the index with fresh tokens.
        self._idx_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def create_table(self, tdef: TableDef,
                     data: Mapping[str, Sequence]) -> Table:
        """Create and register a table with initial *data* (column-wise)."""
        if tdef.name in self._tables:
            raise CatalogError(f"table {tdef.name} already exists")
        declared = {c.name for c in tdef.columns}
        if set(data) != declared:
            raise CatalogError(
                f"table {tdef.name}: data columns {sorted(data)} do not "
                f"match declaration {sorted(declared)}"
            )
        columns = {}
        for c in tdef.columns:
            try:
                dtype = np.dtype(c.dtype)
            except TypeError as exc:
                raise CatalogError(
                    f"table {tdef.name}.{c.name}: {exc}") from exc
            try:
                columns[c.name] = np.asarray(data[c.name], dtype=dtype)
            except (TypeError, ValueError) as exc:
                raise UpdateError(
                    f"table {tdef.name}.{c.name}: data is not {dtype}: {exc}"
                ) from exc
        table = Table(tdef.name, columns)
        self._tables[tdef.name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"unknown table {name}")
        del self._tables[name]
        self.schema_version += 1
        for fk in [f for f in self._fkeys.values()
                   if name in (f.fk_table, f.pk_table)]:
            del self._fkeys[fk.name]
            self._fkeys_by_pair.pop((fk.fk_table, fk.fk_column), None)
            self._idx_cache.pop(fk.name, None)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}")

    def has_table(self, name: str) -> bool:
        return name in self._tables

    # ------------------------------------------------------------------
    # Binds
    # ------------------------------------------------------------------
    def bind(self, table: str, column: str) -> BAT:
        """Resolve ``sql.bind(schema, table, column)`` to a persistent BAT."""
        return self.table(table).bind(column)

    # ------------------------------------------------------------------
    # Foreign keys / join indices
    # ------------------------------------------------------------------
    def add_foreign_key(self, name: str, fk_table: str, fk_column: str,
                        pk_table: str, pk_column: str) -> ForeignKey:
        for t, c in ((fk_table, fk_column), (pk_table, pk_column)):
            if not self.table(t).has_column(c):
                raise CatalogError(f"unknown column {t}.{c}")
        fk = ForeignKey(name, fk_table, fk_column, pk_table, pk_column)
        self._fkeys[name] = fk
        self._fkeys_by_pair[(fk_table, fk_column)] = fk
        return fk

    def foreign_key_for(self, fk_table: str,
                        fk_column: str) -> Optional[ForeignKey]:
        return self._fkeys_by_pair.get((fk_table, fk_column))

    def bind_idx(self, fk_table: str, fk_column: str) -> BAT:
        """Resolve ``sql.bindIdxbat``: the join index ``[fk_oid -> pk_oid]``.

        Rebuilt lazily when either side of the constraint changed.  Rows
        whose foreign key has no match map to oid ``-1`` (TPC-H data never
        produces those, but synthetic tests may).
        """
        fk = self.foreign_key_for(fk_table, fk_column)
        if fk is None:
            raise CatalogError(
                f"no foreign key declared on {fk_table}.{fk_column}"
            )
        fk_tab = self.table(fk.fk_table)
        pk_tab = self.table(fk.pk_table)
        with self._idx_lock:
            return self._bind_idx_locked(fk, fk_tab, pk_tab)

    def _bind_idx_locked(self, fk: ForeignKey, fk_tab: Table,
                         pk_tab: Table) -> BAT:
        fk_ver = fk_tab.versions[fk.fk_column]
        pk_ver = pk_tab.versions[fk.pk_column]
        cached = self._idx_cache.get(fk.name)
        if cached is not None and cached[0] == fk_ver and cached[1] == pk_ver:
            return cached[2]
        target = _join_targets(fk_tab.column_array(fk.fk_column),
                              pk_tab.column_array(fk.pk_column))
        sources = frozenset({
            fk_tab.source_key(fk.fk_column),
            pk_tab.source_key(fk.pk_column),
        })
        bat = BAT(
            Dense(0, len(target)),
            target,
            owned_nbytes=0,
            sources=sources,
            persistent_name=f"idx:{fk.name}",
        )
        self._idx_cache[fk.name] = (fk_ver, pk_ver, bat)
        return bat

    # ------------------------------------------------------------------
    # Update entry points (each bumps the versions it changes)
    # ------------------------------------------------------------------
    def insert(self, table: str, rows: Mapping[str, Sequence]) -> None:
        self.table(table).insert(rows)

    def delete_oids(self, table: str, oids: Sequence[int]) -> None:
        self.table(table).delete_oids(oids)

    def update_column(self, table: str, column: str, oids: Sequence[int],
                      values: Sequence) -> None:
        self.table(table).update_column(column, oids, values)
