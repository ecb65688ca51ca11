"""Tables: named collections of equally long columns with update support.

A :class:`Table` stores one numpy array per column.  Updates follow the
paper's delta discipline (§6): inserts append, deletes physically compact
the table (renumbering oids), and both bump the affected column *versions*.
Version bumps are what connect the storage layer to the recycler — a cached
intermediate is valid only for the column versions it was computed from.

Like MonetDB's delta structures (§6), an insert or delete does not rewrite
the columns: it appends ``("append", arrays)`` or ``("delete", oids)`` to
the table's *row log*.  Each column records how far into the log it is,
and the first read of a column (:meth:`Table.column_array`, ``bind``,
``column_sorted``) applies what it has not seen in one pass — one
concatenation of the appended values, then one boolean mask of the rows
kept, built once and shared by every column at that log position.  A
write thus costs the rows it changes, and a column nobody reads pays
nothing until the log holds more rows than the table, when every column
catches up.

Per the paper's implemented synchronisation mode (§6.4): "Insertion and
deletion of rows affect all cached columns of the changed table, but updates
invalidate only the columns directly affected."
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StorageError, UpdateError
from repro.storage.bat import BAT


def _is_sorted(values: np.ndarray) -> bool:
    """Non-decreasing?  Neighbours are compared (a difference wraps for
    unsigned integers and is ``!=`` for bools) over growing prefixes, so
    a column that descends early is rejected early."""
    start, step = 0, 64
    while start < len(values) - 1:
        stop = min(len(values), start + step + 1)
        chunk = values[start:stop]
        if not np.all(chunk[:-1] <= chunk[1:]):
            return False
        start, step = stop - 1, step * 4
    return True


def _entry_rows(entry: Tuple[str, Any]) -> int:
    """Rows one row-log entry appends or deletes."""
    kind, payload = entry
    if kind == "delete":
        return len(payload)
    return len(next(iter(payload.values()))) if payload else 0


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
        self.nrows = next(iter(lengths.values()), 0)
        self.versions: Dict[str, int] = {c: 0 for c in columns}
        # The row log: ``("append", {column: values})`` and ``("delete",
        # oids)`` entries not yet applied by every column.  _log[0] is at
        # log position _log_start; a column holds the table as of log
        # position _applied[column].
        self._log: List[Tuple[str, Any]] = []
        self._log_start = 0
        self._log_rows = 0
        self._applied: Dict[str, int] = {c: 0 for c in columns}
        # Keep mask from a log position to the log's end, shared by every
        # column at that position (None: no delete, concatenation alone);
        # emptied whenever the log grows.
        self._keeps: Dict[int, Optional[np.ndarray]] = {}
        # Cache of persistent column BATs, keyed by (column, version) so a
        # re-bind after an update yields a fresh token (see bat.BAT docs).
        self._bind_cache: Dict[Tuple[str, int], BAT] = {}
        self._sorted_cache: Dict[Tuple[str, int], bool] = {}
        # Concurrent readers racing the bind miss path would otherwise
        # mint two BATs with distinct lineage tokens for the same column
        # version — splitting their signature chains and killing reuse.
        # It also guards the row log, which readers apply.
        self._bind_lock = threading.RLock()

    # ------------------------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def has_column(self, column: str) -> bool:
        return column in self._columns

    def column_array(self, column: str) -> np.ndarray:
        if column not in self._columns:
            raise StorageError(f"table {self.name} has no column {column!r}")
        with self._bind_lock:
            return self._current(column)

    def column_sorted(self, column: str) -> bool:
        with self._bind_lock:
            key = (column, self.versions[column])
            if key not in self._sorted_cache:
                self._sorted_cache[key] = _is_sorted(self._current(column))
            return self._sorted_cache[key]

    # ------------------------------------------------------------------
    # The row log
    # ------------------------------------------------------------------
    def _current(self, column: str) -> np.ndarray:
        """*column* with the whole row log applied.  Caller holds
        ``_bind_lock``."""
        values = self._columns[column]
        pos = self._applied[column]
        end = self._log_start + len(self._log)
        if pos == end:
            return values
        suffix = self._log[pos - self._log_start:]
        parts = [values] + [payload[column] for kind, payload in suffix
                            if kind == "append"]
        if len(parts) > 1:
            values = np.concatenate(parts)
        keep = self._keep_mask(pos, len(parts[0]), suffix)
        if keep is not None:
            values = values[keep]
        self._columns[column] = values
        self._applied[column] = end
        self._trim_log()
        return values

    def _keep_mask(self, pos: int, nrows: int,
                   suffix: List[Tuple[str, Any]]) -> Optional[np.ndarray]:
        """Which rows, of a column of *nrows* rows at log position *pos*
        followed by the suffix's appended rows, the suffix keeps; None
        when it deletes nothing.  (A mask copies a column in about 60 %
        of the time an int64 gather takes when nearly every row stays.)"""
        if pos in self._keeps:
            return self._keeps[pos]
        keep = None
        total = nrows
        for entry in suffix:
            kind, payload = entry
            if kind == "append":
                k = _entry_rows(entry)
                if keep is not None:
                    keep = np.concatenate([keep, np.ones(k, dtype=bool)])
                total += k
            elif keep is None:
                keep = np.ones(total, dtype=bool)
                keep[payload] = False
            else:
                # The oids number the rows kept so far.
                keep[np.flatnonzero(keep)[payload]] = False
        self._keeps[pos] = keep
        return keep

    def _trim_log(self) -> None:
        """Drop the log entries every column has applied."""
        end = self._log_start + len(self._log)
        done = min(self._applied.values(), default=end) - self._log_start
        if done > 0:
            self._log_rows -= sum(_entry_rows(e) for e in self._log[:done])
            del self._log[:done]
            self._log_start += done

    def _log_append(self, entry: Tuple[str, Any]) -> None:
        """Record one insert or delete.  Once the log holds more rows than
        the table, every column catches up, so an unread column pins a
        bounded log and the worst case costs one eager rewrite."""
        self._log.append(entry)
        self._log_rows += _entry_rows(entry)
        self._keeps.clear()
        if self._log_rows > self.nrows or not self._columns:
            for c in self._columns:
                self._current(c)
            self._trim_log()

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
                    self._current(column),
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
        self._sorted_cache.clear()

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

    def insert(self, rows: Mapping[str, Sequence]) -> None:
        """Append rows (column-wise mapping)."""
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
        with self._bind_lock:
            self.nrows += next(iter(n.values()), 0)
            # The log keeps its own copy: a caller may reuse its arrays.
            self._log_append(
                ("append", {c: v.copy() for c, v in arrays.items()}))
            self._bump_all()

    def delete_oids(self, oids: Sequence[int]) -> None:
        """Delete rows by oid, physically compacting the table."""
        oids = np.unique(np.asarray(oids, dtype=np.int64))
        if len(oids) == 0:
            return
        if oids[0] < 0 or oids[-1] >= self.nrows:
            raise UpdateError(
                f"delete from {self.name}: oid out of range "
                f"(nrows={self.nrows})"
            )
        with self._bind_lock:
            self.nrows -= len(oids)
            self._log_append(("delete", oids))
            self._bump_all()

    def update_column(self, column: str, oids: Sequence[int],
                      values: Sequence) -> None:
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
        with self._bind_lock:
            col = self._current(column)
            arr = col.astype(np.result_type(col, values))
            arr[oids] = values
            self._columns[column] = arr
            old = (column, self.versions[column])
            self.versions[column] += 1
            self._bind_cache.pop(old, None)
            self._sorted_cache.pop(old, None)
