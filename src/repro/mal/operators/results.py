"""Result-set construction: the final step of every query plan.

``sql.resultset`` gathers positionally aligned output columns into a
:class:`ResultSet`; ``sql.exportValue`` wraps a single scalar.  Neither is
recyclable — they are per-invocation artefacts, not relational
intermediates (§3.1).
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.errors import InterpreterError
from repro.storage.bat import BAT
from repro.mal.operators import register


#: numpy dtype kind -> DB-API type code string (see ``docs/API.md``).
_KIND_TO_TYPE = {
    "i": "INTEGER", "u": "INTEGER", "b": "INTEGER",
    "f": "FLOAT", "U": "STRING", "S": "STRING", "O": "STRING",
    "M": "DATE", "m": "INTERVAL",
}


class ResultSet:
    """A query result: named columns of equal length.

    The value side of the DB-API surface: ``len``, ``column(name)``,
    ``rows()``, ``scalar()`` — and :attr:`description`, the PEP 249
    7-tuple-per-column metadata the :class:`~repro.dbapi.Cursor`
    re-exports.
    """

    def __init__(self, names: Sequence[str], columns: Sequence[np.ndarray]):
        if len(names) != len(columns):
            raise InterpreterError("resultset: names/columns mismatch")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise InterpreterError(f"resultset: ragged columns {lengths}")
        self.names = list(names)
        self.columns = [np.asarray(c) for c in columns]

    @property
    def description(self) -> List[Tuple]:
        """PEP 249 column metadata: ``(name, type_code, display_size,
        internal_size, precision, scale, null_ok)`` per column, with
        ``internal_size`` the dtype's item size and the unknowable
        fields ``None``."""
        out = []
        for name, col in zip(self.names, self.columns):
            dtype = col.dtype
            type_code = _KIND_TO_TYPE.get(dtype.kind, dtype.str)
            out.append((name, type_code, None, int(dtype.itemsize),
                        None, None, None))
        return out

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def width(self) -> int:
        return len(self.names)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[self.names.index(name)]
        except ValueError:
            raise InterpreterError(f"result has no column {name!r}")

    def rows(self) -> List[Tuple]:
        """All rows as Python tuples — what both cursors and the server
        fetch.  Built a column at a time: ``tolist()`` converts each cell
        exactly as ``.item()`` would (``datetime64[D]`` → ``datetime.date``,
        object cells as stored), in C instead of a Python call per cell."""
        return list(zip(*(col.tolist() for col in self.columns)))

    def scalar(self) -> Any:
        """The single value of a 1x1 result, converted as by :meth:`rows`."""
        if len(self) != 1 or self.width != 1:
            raise InterpreterError(
                f"scalar() on a {len(self)}x{self.width} result"
            )
        return self.columns[0].tolist()[0]

    def __repr__(self) -> str:
        return f"ResultSet({self.names}, {len(self)} rows)"


@register("sql.resultset", recyclable=False, kind="result")
def sql_resultset(ctx, names: Tuple[str, ...], *cols: BAT) -> ResultSet:
    """Build a result set from aligned output BATs (tails become columns)."""
    return ResultSet(list(names), [c.tail_values() for c in cols])


@register("sql.exportValue", recyclable=False, kind="result")
def sql_export_value(ctx, name: str, value) -> ResultSet:
    """Wrap a scalar into a 1x1 result set."""
    return sql_scalarrow(ctx, (name,), value)


@register("sql.scalarrow", recyclable=False, kind="result")
def sql_scalarrow(ctx, names: Tuple[str, ...], *values) -> ResultSet:
    """A single-row result from scalar values (global aggregates)."""
    cols = [
        np.array([np.nan]) if v is None else np.array([v]) for v in values
    ]
    return ResultSet(list(names), cols)
