"""Ordering and windowing operators: multi-key sort and slice (LIMIT)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import InterpreterError, ProgrammingError
from repro.storage.bat import BAT, Dense
from repro.mal.operators import register


def _sort_key(values: np.ndarray, ascending: bool) -> np.ndarray:
    """A numeric key array whose ascending order realises the request."""
    if ascending:
        return values
    if values.dtype.kind in "iufb":
        return -values
    if values.dtype.kind == "M":
        return -values.astype(np.int64)
    # Strings (or anything else without unary minus): rank then negate.
    _, inverse = np.unique(values, return_inverse=True)
    return -inverse


@register("algebra.lexsort", kind="sort")
def algebra_lexsort(ctx, asc_flags: Tuple[bool, ...], *keys: BAT) -> BAT:
    """Multi-key sort: ``[result position -> head oid]`` permutation.

    *keys* are positionally aligned BATs, most significant first;
    *asc_flags* gives the direction per key.  The permutation BAT is then
    used to project any aligned column into output order.
    """
    if not keys:
        raise InterpreterError("lexsort: at least one key required")
    if len(asc_flags) != len(keys):
        raise InterpreterError("lexsort: per-key direction flags required")
    n = len(keys[0])
    for k in keys:
        if len(k) != n:
            raise InterpreterError("lexsort: misaligned key columns")
    # np.lexsort sorts by the *last* key first -> reverse significance order.
    arrays = [
        _sort_key(k.tail_values(), asc)
        for k, asc in zip(reversed(keys), reversed(asc_flags))
    ]
    order = np.lexsort(arrays) if n else np.empty(0, dtype=np.int64)
    heads = keys[0].head_values()[order]
    sources = frozenset().union(*(k.sources for k in keys))
    return BAT.materialized(Dense(0, n), heads, sources=sources)


def window(offset, count) -> slice:
    """The rows ``[offset, offset+count)`` of OFFSET/LIMIT (``count=None``
    = the rest).  Both are template parameters a client can bind, so
    anything but an integer >= 0 is a :class:`ProgrammingError`."""
    for clause, value in (("OFFSET", offset), ("LIMIT", count)):
        if value is None and clause == "LIMIT":
            continue
        if isinstance(value, bool) or \
                not isinstance(value, (int, np.integer)) or value < 0:
            raise ProgrammingError(
                f"{clause} needs an integer >= 0, got {value!r}")
    return slice(offset, None if count is None else offset + count)


@register("algebra.slice", kind="sort")
def algebra_slice(ctx, bat: BAT, offset: int, count) -> BAT:
    """Rows ``[offset, offset+count)`` — LIMIT/OFFSET.  ``count=None`` = rest."""
    rows = window(offset, count)
    heads = bat.head_values()[rows]
    tails = bat.tail_values()[rows]
    return BAT.view(
        heads,
        tails,
        sources=bat.sources,
        subset_parent=bat,
        tail_sorted=bat.tail_sorted,
    )
