"""Grouping and aggregation operators.

``group.new`` assigns dense group ids over a column; ``group.derive``
refines an existing grouping with an additional column (multi-attribute
GROUP BY).  Grouped aggregates take positionally aligned value/grouping
BATs and return ``[group_id -> aggregate]``.  Scalar aggregates (suffix
``1``) reduce a whole BAT to a single value.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InterpreterError
from repro.storage.bat import BAT, Dense
from repro.mal.operators import register


def _rank_key(values: np.ndarray):
    """An integer array ordered as *values*, or None when there is none.

    Integers are their own key, a one-character string is its code
    point and a datetime its int64 count.
    """
    if values.dtype.kind in "iu":
        return values
    if values.dtype == np.dtype("<U1"):
        return values.view(np.uint32)
    if values.dtype.kind == "M":
        return values.view(np.int64)
    return None


def rank(values: np.ndarray) -> np.ndarray:
    """Dense ranks in sorted-value order: the inverse ``np.unique``
    returns, which is the group id of every row.

    A narrow integer key (range at most 4 x len) ranks through a
    presence table and a running count, in time linear in the input;
    anything else sorts.
    """
    key = _rank_key(values)
    if key is not None and len(key):
        if key.dtype.itemsize < 8:
            key = key.astype(np.int64)
        lo = key.min()
        span = int(key.max()) - int(lo) + 1
        # NaT is the int64 minimum as a key but sorts last in np.unique.
        nat = values.dtype.kind == "M" and lo == np.iinfo(np.int64).min
        if span <= 4 * len(key) and not nat:
            offsets = key - lo
            present = np.zeros(span, dtype=bool)
            present[offsets] = True
            return (np.cumsum(present) - 1)[offsets]
    return np.unique(values, return_inverse=True)[1]


def _group_ids(grp: BAT) -> np.ndarray:
    ids = grp.tail_values()
    if ids.dtype.kind not in "iu":
        raise InterpreterError("expected a grouping BAT (integer tail)")
    return ids


def _ngroups(ids: np.ndarray) -> int:
    return int(ids.max()) + 1 if len(ids) else 0


@register("group.new", kind="group")
def group_new(ctx, bat: BAT) -> BAT:
    """Group rows by tail value; result tail holds dense group ids."""
    return BAT.materialized(
        bat.head if bat.head_dense else bat.head_values(),
        rank(bat.tail_values()).astype(np.int64),
        sources=bat.sources,
    )


@register("group.derive", kind="group")
def group_derive(ctx, grp: BAT, bat: BAT) -> BAT:
    """Refine grouping *grp* with the values of *bat* (positionally aligned)."""
    ids = _group_ids(grp)
    if len(ids) != len(bat):
        raise InterpreterError(
            f"group.derive: misaligned operands ({len(ids)} vs {len(bat)})"
        )
    inv2 = rank(bat.tail_values())
    combined = ids * (int(inv2.max()) + 1 if len(inv2) else 1) + inv2
    return BAT.materialized(
        grp.head if grp.head_dense else grp.head_values(),
        rank(combined).astype(np.int64),
        sources=grp.sources | bat.sources,
    )


@register("group.extents", kind="group")
def group_extents(ctx, grp: BAT) -> BAT:
    """``[group_id -> head oid of the first row of the group]``."""
    ids = _group_ids(grp)
    ng = _ngroups(ids)
    heads = grp.head_values()
    rep = np.zeros(ng, dtype=np.int64)
    # Reverse assignment keeps the *first* occurrence per group.
    rep[ids[::-1]] = heads[::-1]
    return BAT.materialized(
        Dense(0, ng), rep, sources=grp.sources
    )


def _aligned(vals: BAT, grp: BAT) -> tuple:
    ids = _group_ids(grp)
    v = vals.tail_values()
    if len(v) != len(ids):
        raise InterpreterError(
            f"grouped aggregate: misaligned operands ({len(v)} vs {len(ids)})"
        )
    return v, ids, _ngroups(ids)


@register("aggr.sum", kind="aggr")
def aggr_sum(ctx, vals: BAT, grp: BAT) -> BAT:
    """Grouped sum (result dtype float64 for floats, int64 otherwise)."""
    v, ids, ng = _aligned(vals, grp)
    if v.dtype.kind == "f":
        out = np.bincount(ids, weights=v, minlength=ng)
    else:
        out = np.bincount(ids, weights=v.astype(np.float64), minlength=ng)
        out = out.astype(np.int64)
    return BAT.materialized(Dense(0, ng), out,
                            sources=vals.sources | grp.sources)


@register("aggr.count", kind="aggr")
def aggr_count(ctx, grp: BAT) -> BAT:
    """Grouped row count."""
    ids = _group_ids(grp)
    ng = _ngroups(ids)
    out = np.bincount(ids, minlength=ng).astype(np.int64)
    return BAT.materialized(Dense(0, ng), out, sources=grp.sources)


@register("aggr.avg", kind="aggr")
def aggr_avg(ctx, vals: BAT, grp: BAT) -> BAT:
    """Grouped arithmetic mean (float64)."""
    v, ids, ng = _aligned(vals, grp)
    sums = np.bincount(ids, weights=v.astype(np.float64), minlength=ng)
    counts = np.bincount(ids, minlength=ng)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = sums / counts
    return BAT.materialized(Dense(0, ng), out,
                            sources=vals.sources | grp.sources)


def _grouped_extreme(vals: BAT, grp: BAT, take_max: bool) -> BAT:
    v, ids, ng = _aligned(vals, grp)
    # Sort by (group, value) and pick one row per group — dtype-agnostic
    # (works for strings and datetimes where ufunc.at does not).
    order = np.lexsort((v, ids))
    sorted_ids = ids[order]
    boundaries = np.ones(len(order), dtype=bool)
    boundaries[1:] = sorted_ids[1:] != sorted_ids[:-1]
    if take_max:
        # Last row of each group: boundaries of the reversed array.
        last = np.zeros(len(order), dtype=bool)
        last[:-1] = sorted_ids[:-1] != sorted_ids[1:]
        last[-1] = True
        pick = order[last]
        picked_ids = sorted_ids[last]
    else:
        pick = order[boundaries]
        picked_ids = sorted_ids[boundaries]
    out = np.empty(ng, dtype=v.dtype)
    out[picked_ids] = v[pick]
    return BAT.materialized(Dense(0, ng), out,
                            sources=vals.sources | grp.sources)


@register("aggr.min", kind="aggr")
def aggr_min(ctx, vals: BAT, grp: BAT) -> BAT:
    """Grouped minimum (any ordered dtype)."""
    return _grouped_extreme(vals, grp, take_max=False)


@register("aggr.max", kind="aggr")
def aggr_max(ctx, vals: BAT, grp: BAT) -> BAT:
    """Grouped maximum (any ordered dtype)."""
    return _grouped_extreme(vals, grp, take_max=True)


@register("aggr.countdistinct", kind="aggr")
def aggr_countdistinct(ctx, vals: BAT, grp: BAT) -> BAT:
    """Grouped COUNT(DISTINCT value)."""
    v, ids, ng = _aligned(vals, grp)
    vinv = rank(v)
    pairs = ids * (int(vinv.max()) + 1 if len(vinv) else 1) + vinv
    uniq_pairs = np.unique(pairs)
    width = int(vinv.max()) + 1 if len(vinv) else 1
    out = np.bincount((uniq_pairs // width).astype(np.int64),
                      minlength=ng).astype(np.int64)
    return BAT.materialized(Dense(0, ng), out,
                            sources=vals.sources | grp.sources)


# ---------------------------------------------------------------------------
# Scalar (ungrouped) aggregates
# ---------------------------------------------------------------------------
@register("aggr.count1", recyclable=False, kind="aggr")
def aggr_count1(ctx, bat: BAT) -> int:
    """COUNT(*) over a BAT."""
    return int(len(bat))


@register("aggr.sum1", recyclable=False, kind="aggr")
def aggr_sum1(ctx, bat: BAT):
    """SUM over a BAT tail (None for empty input, per SQL)."""
    if len(bat) == 0:
        return None
    v = bat.tail_values()
    total = v.sum()
    return float(total) if v.dtype.kind == "f" else int(total)


@register("aggr.avg1", recyclable=False, kind="aggr")
def aggr_avg1(ctx, bat: BAT):
    """AVG over a BAT tail (None for empty input)."""
    if len(bat) == 0:
        return None
    return float(bat.tail_values().astype(np.float64).mean())


@register("aggr.min1", recyclable=False, kind="aggr")
def aggr_min1(ctx, bat: BAT):
    """MIN over a BAT tail (None for empty input)."""
    if len(bat) == 0:
        return None
    v = bat.tail_values()
    out = v.min()
    return out.item() if hasattr(out, "item") and v.dtype.kind != "M" else out


@register("aggr.max1", recyclable=False, kind="aggr")
def aggr_max1(ctx, bat: BAT):
    """MAX over a BAT tail (None for empty input)."""
    if len(bat) == 0:
        return None
    v = bat.tail_values()
    out = v.max()
    return out.item() if hasattr(out, "item") and v.dtype.kind != "M" else out


@register("aggr.countdistinct1", recyclable=False, kind="aggr")
def aggr_countdistinct1(ctx, bat: BAT) -> int:
    """COUNT(DISTINCT tail) over a BAT."""
    return int(len(np.unique(bat.tail_values())))
