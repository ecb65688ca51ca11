"""Tables: named collections of equally long columns with update support.

A :class:`Table` stores one numpy array per column.  Updates follow the
paper's delta discipline (§6): inserts append, deletes physically compact
the table (renumbering oids), and both bump the affected column *versions*.
Version bumps are what connect the storage layer to the recycler — a cached
intermediate is valid only for the column versions it was computed from.

Per the paper's implemented synchronisation mode (§6.4): "Insertion and
deletion of rows affect all cached columns of the changed table, but updates
invalidate only the columns directly affected."
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import StorageError, UpdateError
from repro.storage.bat import BAT
from repro.storage.deltas import TableDelta


def _is_sorted(values: np.ndarray) -> bool:
    if len(values) < 2:
        return True
    if values.dtype.kind in "OUS":
        return bool(np.all(values[:-1] <= values[1:]))
    return bool(np.all(np.diff(values) >= 0))


class Table:
    """A base table stored column-wise.

    Columns are numpy arrays of equal length.  ``versions[col]`` counts the
    updates that affected *col*; the pair ``(table, col, version)`` is the
    invalidation granule seen by the recycler.
    """

    def __init__(self, name: str, columns: Mapping[str, np.ndarray]):
        lengths = {c: len(v) for c, v in columns.items()}
        if len(set(lengths.values())) > 1:
            raise StorageError(f"table {name}: ragged columns {lengths}")
        self.name = name
        self._columns: Dict[str, np.ndarray] = {
            c: np.asarray(v) for c, v in columns.items()
        }
        self.versions: Dict[str, int] = {c: 0 for c in columns}
        # Cache of persistent column BATs, keyed by (column, version) so a
        # re-bind after an update yields a fresh token (see bat.BAT docs).
        self._bind_cache: Dict[Tuple[str, int], BAT] = {}
        self._sorted_cache: Dict[Tuple[str, int], bool] = {}
        # Concurrent readers racing the bind miss path would otherwise
        # mint two BATs with distinct lineage tokens for the same column
        # version — splitting their signature chains and killing reuse.
        self._bind_lock = threading.RLock()

    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def has_column(self, column: str) -> bool:
        return column in self._columns

    def column_array(self, column: str) -> np.ndarray:
        try:
            return self._columns[column]
        except KeyError:
            raise StorageError(f"table {self.name} has no column {column!r}")

    def column_sorted(self, column: str) -> bool:
        with self._bind_lock:
            key = (column, self.versions[column])
            if key not in self._sorted_cache:
                self._sorted_cache[key] = _is_sorted(self._columns[column])
            return self._sorted_cache[key]

    # ------------------------------------------------------------------
    # Binding (sql.bind target)
    # ------------------------------------------------------------------
    def bind(self, column: str) -> BAT:
        """The persistent BAT ``[oid -> value]`` for *column*.

        The same BAT object (hence the same lineage token) is returned until
        an update bumps the column version.
        """
        if column not in self._columns:
            raise StorageError(f"table {self.name} has no column {column!r}")
        with self._bind_lock:
            key = (column, self.versions[column])
            bat = self._bind_cache.get(key)
            if bat is None:
                source = (self.name, column, self.versions[column])
                bat = BAT.persistent(
                    f"{self.name}.{column}",
                    self._columns[column],
                    sources=frozenset({source}),
                    tail_sorted=self.column_sorted(column),
                )
                self._bind_cache[key] = bat
            return bat

    def source_key(self, column: str) -> Tuple[str, str, int]:
        """The invalidation granule ``(table, column, version)`` for *column*."""
        return (self.name, column, self.versions[column])

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _bump_all(self) -> None:
        for c in self.versions:
            self.versions[c] += 1
        self._bind_cache.clear()

    def _cast_values(self, what: str, column: str, values) -> np.ndarray:
        """*values* as a 1-D array of *column*'s dtype.  Values must cast
        ``same_kind`` to it; strings keep their own width, so a longer
        string widens the column.  Anything else raises ``UpdateError``."""
        dtype = self._columns[column].dtype
        try:
            v = np.asarray(values)
        except (TypeError, ValueError) as exc:
            raise UpdateError(f"{what} {self.name}.{column}: {exc}") from exc
        if v.ndim != 1:
            raise UpdateError(f"{what} {self.name}.{column}: values must be "
                              f"one-dimensional, got shape {v.shape}")
        if v.size and not np.can_cast(v.dtype, dtype, "same_kind"):
            raise UpdateError(f"{what} {self.name}.{column}: {v.dtype} "
                              f"values do not fit a {dtype} column")
        if dtype.kind in "US" and v.dtype.kind == dtype.kind:
            return v
        return v.astype(dtype, copy=False)

    def insert(self, rows: Mapping[str, Sequence]) -> TableDelta:
        """Append rows (column-wise mapping) and return the delta."""
        missing = set(self._columns) - set(rows)
        extra = set(rows) - set(self._columns)
        if missing or extra:
            raise UpdateError(
                f"insert into {self.name}: missing={sorted(missing)} "
                f"extra={sorted(extra)}"
            )
        arrays = {c: self._cast_values("insert into", c, v)
                  for c, v in rows.items()}
        n = {c: len(v) for c, v in arrays.items()}
        if len(set(n.values())) > 1:
            raise UpdateError(f"insert into {self.name}: ragged rows {n}")
        start = self.nrows
        for c, v in arrays.items():
            self._columns[c] = np.concatenate([self._columns[c], v])
        self._bump_all()
        return TableDelta(self.name, insert_start=start, inserted=arrays)

    def delete_oids(self, oids: Sequence[int]) -> TableDelta:
        """Delete rows by oid, physically compacting the table."""
        oids = np.unique(np.asarray(oids, dtype=np.int64))
        if len(oids) == 0:
            return TableDelta(self.name)
        if len(oids) and (oids[0] < 0 or oids[-1] >= self.nrows):
            raise UpdateError(
                f"delete from {self.name}: oid out of range "
                f"(nrows={self.nrows})"
            )
        keep = np.ones(self.nrows, dtype=bool)
        keep[oids] = False
        for c in self._columns:
            self._columns[c] = self._columns[c][keep]
        self._bump_all()
        return TableDelta(self.name, deleted_oids=oids, renumbered=True)

    def update_column(self, column: str, oids: Sequence[int],
                      values: Sequence) -> TableDelta:
        """In-place update of *column* at *oids* (bumps only that column)."""
        if column not in self._columns:
            raise UpdateError(f"table {self.name} has no column {column!r}")
        oids = np.asarray(oids, dtype=np.int64)
        values = self._cast_values("update", column, values)
        if oids.shape != values.shape:
            raise UpdateError(f"update {self.name}.{column}: {len(values)} "
                              f"values for oids of shape {oids.shape}")
        if len(oids) and (oids.min() < 0 or oids.max() >= self.nrows):
            raise UpdateError(f"update {self.name}.{column}: oid out of "
                              f"range (nrows={self.nrows})")
        col = self._columns[column]
        arr = col.astype(np.result_type(col, values))
        arr[oids] = values
        self._columns[column] = arr
        self.versions[column] += 1
        self._bind_cache.pop((column, self.versions[column] - 1), None)
        # An in-place update is modelled as delete+insert of the same oids.
        return TableDelta(self.name, deleted_oids=oids, renumbered=False,
                          inserted={column: values},
                          insert_start=None)
