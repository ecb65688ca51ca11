"""Selection operators: range, equality, IN-list, LIKE, nil and mask filters.

Selections return a *subset BAT*: the qualifying rows of the operand with
head oids preserved.  Every selection appends ``operand.token`` to its
``subset_chain`` — the lineage fact that powers semijoin subsumption
(§5.1) — and inherits the operand's persistent sources for invalidation.

Range selections over sorted tails return zero-copy views (paper §2.3:
"even a range select operation may become a cheap operation when the
underlying BAT happens to be ordered").
"""

from __future__ import annotations

import re
from typing import Tuple

import numpy as np

from repro.errors import BatTypeError
from repro.storage.bat import BAT
from repro.mal.operators import register


def _subset(bat: BAT, mask: np.ndarray, sources=None) -> BAT:
    """Materialise the rows of *bat* where *mask* is true, keeping head
    oids; the result derives from *sources* (default: *bat*'s).

    Rows are fetched by position, which costs what the result costs —
    unless more than 15 in 16 qualify: then one boolean copy of the
    mask's long runs is cheaper than a fetch per row.  A dense head is
    never expanded; its oids are the positions plus ``hseqbase``.
    """
    nearly_all = np.count_nonzero(mask) * 16 > len(mask) * 15
    idx = None if nearly_all and not bat.head_dense else np.flatnonzero(mask)
    rows = mask if nearly_all else idx
    if bat.head_dense:
        heads = idx + bat.hseqbase
    else:
        heads = bat.head_values()[rows]
    tails = bat.tail_values()[rows]
    return BAT.materialized(
        heads,
        tails,
        sources=bat.sources if sources is None else sources,
        subset_parent=bat,
        tail_sorted=bat.tail_sorted,
    )


def _range_mask(tail: np.ndarray, lo, hi, lo_incl: bool,
                hi_incl: bool) -> np.ndarray:
    mask = np.ones(len(tail), dtype=bool)
    if lo is not None:
        mask &= (tail >= lo) if lo_incl else (tail > lo)
    if hi is not None:
        mask &= (tail <= hi) if hi_incl else (tail < hi)
    return mask


@register("algebra.select", kind="select")
def algebra_select(ctx, bat: BAT, lo, hi, lo_incl: bool = True,
                   hi_incl: bool = True) -> BAT:
    """Range selection on the tail; ``None`` bounds are open.

    Sorted operands use binary search and return a sliced *view* (no copy);
    unsorted operands scan with a boolean mask.
    """
    tail = bat.tail_values()
    if bat.tail_sorted and len(tail):
        left = 0
        right = len(tail)
        if lo is not None:
            left = int(np.searchsorted(tail, lo, "left" if lo_incl else "right"))
        if hi is not None:
            right = int(np.searchsorted(tail, hi, "right" if hi_incl else "left"))
        right = max(left, right)
        return BAT.view(
            bat.head_values()[left:right] if not bat.head_dense
            else _dense_slice(bat, left, right),
            tail[left:right],
            sources=bat.sources,
            subset_parent=bat,
            tail_sorted=True,
        )
    return _subset(bat, _range_mask(tail, lo, hi, lo_incl, hi_incl))


def _dense_slice(bat: BAT, left: int, right: int):
    from repro.storage.bat import Dense

    return Dense(bat.hseqbase + left, right - left)


@register("algebra.uselect", kind="select")
def algebra_uselect(ctx, bat: BAT, value) -> BAT:
    """Equality selection on the tail."""
    tail = bat.tail_values()
    return _subset(bat, tail == value)


@register("algebra.inselect", kind="select")
def algebra_inselect(ctx, bat: BAT, values: Tuple) -> BAT:
    """IN-list selection on the tail (*values* is a tuple constant)."""
    tail = bat.tail_values()
    mask = np.isin(tail, np.asarray(list(values), dtype=tail.dtype))
    return _subset(bat, mask)


def like_to_regex(pattern: str) -> "re.Pattern":
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def like_mask(tail: np.ndarray, pattern: str) -> np.ndarray:
    """Boolean mask of tail values matching the LIKE *pattern*.

    Fast paths cover the common prefix/suffix/infix shapes; everything else
    falls back to a compiled regex.
    """
    if tail.dtype.kind not in "US":
        raise BatTypeError(f"likeselect: expected string tail, got {tail.dtype}")
    body = pattern.strip("%")
    simple = "%" not in body and "_" not in body
    if simple and pattern.endswith("%") and not pattern.startswith("%"):
        return np.char.startswith(tail, body)
    if simple and pattern.startswith("%") and not pattern.endswith("%"):
        return np.char.endswith(tail, body)
    if simple and pattern.startswith("%") and pattern.endswith("%"):
        return np.char.find(tail, body) >= 0
    if "%" not in pattern and "_" not in pattern:
        return tail == pattern
    rx = like_to_regex(pattern)
    return np.fromiter(
        (rx.match(s) is not None for s in tail), dtype=bool, count=len(tail)
    )


@register("algebra.likeselect", kind="select")
def algebra_likeselect(ctx, bat: BAT, pattern: str) -> BAT:
    """SQL LIKE selection on a string tail."""
    tail = bat.tail_values()
    return _subset(bat, like_mask(tail, pattern))


@register("algebra.notlikeselect", kind="select")
def algebra_notlikeselect(ctx, bat: BAT, pattern: str) -> BAT:
    """SQL NOT LIKE selection on a string tail."""
    tail = bat.tail_values()
    return _subset(bat, ~like_mask(tail, pattern))


@register("algebra.selecttrue", kind="select")
def algebra_selecttrue(ctx, mask_bat: BAT) -> BAT:
    """Keep rows whose (boolean) tail is true — companion of ``batcalc``."""
    tail = mask_bat.tail_values()
    return _subset(mask_bat, tail.astype(bool))
