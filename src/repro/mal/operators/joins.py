"""Join-family operators.

The binary-algebra join convention follows MonetDB (§2.2): ``join(L, R)``
matches ``L.tail`` against ``R.head`` and yields ``[L.head -> R.tail]``.
``semijoin(L, R)`` keeps the rows of ``L`` whose head occurs in ``R``'s head
(the projection workhorse); its result is a row-subset of ``L``, which the
operator records in its ``subset_chain`` lineage for subsumption (§5.1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import InterpreterError
from repro.storage.bat import BAT, OID_DTYPE
from repro.mal.operators import register
from repro.mal.operators.selection import _subset


def _merge_join_indices(lv: np.ndarray, rv: np.ndarray):
    """All-pairs equi-join positions between value arrays *lv* and *rv*.

    Returns ``(lidx, ridx)`` such that ``lv[lidx] == rv[ridx]`` enumerating
    every matching pair (M:N safe), in left order.
    """
    order = np.argsort(rv, kind="stable")
    rs = rv[order]
    left = np.searchsorted(rs, lv, "left")
    right = np.searchsorted(rs, lv, "right")
    counts = right - left
    total = int(counts.sum())
    lidx = np.repeat(np.arange(len(lv)), counts)
    if total == 0:
        return lidx, np.empty(0, dtype=np.int64)
    starts = np.repeat(left, counts)
    group_starts = np.repeat(np.cumsum(counts) - counts, counts)
    offsets = starts + (np.arange(total) - group_starts)
    ridx = order[offsets]
    return lidx, ridx


def _increasing(values: np.ndarray) -> bool:
    """True when *values* is strictly increasing: sorted, no duplicates."""
    return bool(np.all(values[1:] > values[:-1]))


@register("algebra.join", kind="join")
def algebra_join(ctx, l: BAT, r: BAT) -> BAT:
    """Equi-join ``L.tail == R.head`` returning ``[L.head -> R.tail]``."""
    lv = l.tail_values()
    sources = l.sources | r.sources
    if r.head_dense:
        base = r.hseqbase
        idx = lv.astype(np.int64, copy=False) - base
        valid = (idx >= 0) & (idx < len(r))
        heads = l.head_values()[valid]
        tails = r.tail_values()[idx[valid]]
        return BAT.materialized(heads, tails, sources=sources)
    rv = r.head_values()
    if lv.dtype.kind != rv.dtype.kind and {lv.dtype.kind, rv.dtype.kind} - {"i", "u"}:
        raise InterpreterError(
            f"join: incompatible key types {lv.dtype} vs {rv.dtype}"
        )
    lidx, ridx = _merge_join_indices(lv, rv)
    heads = l.head_values()[lidx]
    tails = r.tail_values()[ridx]
    return BAT.materialized(heads, tails, sources=sources)


@register("algebra.leftfetchjoin", kind="join")
def algebra_leftfetchjoin(ctx, l: BAT, r: BAT) -> BAT:
    """Positional fetch: ``R`` must have a dense head covering ``L.tail``.

    The cheap projection path used when every left key is known to match
    (e.g. projecting attributes through oid alignment columns).
    """
    if not r.head_dense:
        return algebra_join(ctx, l, r)
    base = r.hseqbase
    idx = l.tail_values().astype(np.int64, copy=False) - base
    if len(idx) and (idx.min() < 0 or idx.max() >= len(r)):
        raise InterpreterError(
            "leftfetchjoin: left tail oid outside right head range"
        )
    tails = r.tail_values()[idx]
    return BAT.materialized(
        l.head_values() if not l.head_dense else l.head,
        tails,
        sources=l.sources | r.sources,
    )


def _dense_keys(l: BAT, r: BAT):
    """R's head oids that name rows of dense-headed *l*, once each and in
    oid order — or None when *l*'s head is materialised or R's heads are
    not integers that fit an oid.

    With a dense (void) head, a row's oid is its position plus
    ``hseqbase`` (§2.1), so matching R against L needs no scan of L.
    """
    if not l.head_dense:
        return None
    rh = r.head_values()
    if not np.can_cast(rh.dtype, OID_DTYPE):
        return None
    keys = rh.astype(OID_DTYPE, copy=False)
    if not _increasing(keys):
        keys = np.unique(keys)
    lo, hi = l.hseqbase, l.hseqbase + len(l)
    if len(keys) and (keys[0] < lo or keys[-1] >= hi):
        keys = keys[np.searchsorted(keys, lo):np.searchsorted(keys, hi)]
    # Share R's own array when it is all of the answer (operators never
    # write in place); a slice is copied, as it would pin its whole base.
    return keys if keys.base is None else keys.copy()


@register("algebra.semijoin", kind="join")
def algebra_semijoin(ctx, l: BAT, r: BAT) -> BAT:
    """Rows of ``L`` whose head occurs among ``R``'s head oids."""
    heads = _dense_keys(l, r)
    if heads is not None:
        tails = l.tail_values()[heads - l.hseqbase]
    else:
        lh = l.head_values()
        rh = r.head_values()
        mask = np.isin(lh, rh)
        tails = l.tail_values()[mask]
        # Both heads sorted and unique (rows of one table) and every R
        # oid found: lh[mask] would equal R's heads, so share R's array
        # instead of pooling a copy.
        if len(tails) == len(rh) and rh.base is None \
                and rh.dtype == lh.dtype \
                and (l.head_dense or _increasing(lh)) and _increasing(rh):
            heads = rh
        else:
            heads = lh[mask]
    return BAT.materialized(
        heads,
        tails,
        sources=l.sources | r.sources,
        subset_parent=l,
        tail_sorted=l.tail_sorted,
    )


@register("algebra.kdifference", kind="join")
def algebra_kdifference(ctx, l: BAT, r: BAT) -> BAT:
    """Anti-semijoin: rows of ``L`` whose head does *not* occur in ``R``."""
    found = _dense_keys(l, r)
    if found is not None:
        keep = np.ones(len(l), dtype=bool)
        keep[found - l.hseqbase] = False
    else:
        keep = ~np.isin(l.head_values(), r.head_values())
    return _subset(l, keep, sources=l.sources | r.sources)


@register("algebra.kunique", kind="join")
def algebra_kunique(ctx, bat: BAT) -> BAT:
    """Deduplicate on head values (keep the first occurrence)."""
    heads = bat.head_values()
    _, first = np.unique(heads, return_index=True)
    first.sort()
    return BAT.materialized(
        heads[first],
        bat.tail_values()[first],
        sources=bat.sources,
        subset_parent=bat,
    )
