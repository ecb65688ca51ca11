"""Delta propagation through cached intermediates (paper §6.3).

The paper's implemented synchronisation mode is immediate invalidation;
propagation is described as the design that "can be much cheaper than
re-computing over the original large attribute" for small appends.  We
implement the select case — the paper's own worked example: given the
insert delta of a base column, a cached ``algebra.select`` over that
column's bind is refreshed by selecting over the delta rows and appending
the result to the retained intermediate.

Propagation preserves the entry's lineage token (children were computed
from this very BAT object), but children's *values* are stale, so they are
dropped — the paper's "refresh the selection, invalidate the remainder of
the execution thread" strategy.
"""

from __future__ import annotations

import numpy as np

from repro.core.pool import RecycleEntry
from repro.storage.bat import BAT
from repro.storage.deltas import TableDelta


def _is_select_over_bind(entry: RecycleEntry, table: str) -> bool:
    """Cached ``algebra.select`` directly over a persistent bind of *table*."""
    if entry.opname != "algebra.select":
        return False
    value = entry.value
    if not isinstance(value, BAT) or len(value.sources) != 1:
        return False
    (src_table, _col, _ver), = value.sources
    if src_table != table:
        return False
    # The operand must be the persistent bind itself — a select over a
    # *derived* intermediate (e.g. the second leg of a chained range
    # predicate) shares the bind's sources, but appending delta rows to it
    # would skip the upstream predicate, and re-keying it onto the bind
    # token would collide with the true select-over-bind of the same
    # range.  A direct select's subset lineage is exactly (operand,).
    op_arg = entry.sig[1] if len(entry.sig) > 1 else None
    return (
        isinstance(op_arg, tuple) and op_arg[0] == "b"
        and value.subset_chain == (op_arg[1],)
    )


def _range_mask(values: np.ndarray, lo, hi, lo_incl, hi_incl) -> np.ndarray:
    mask = np.ones(len(values), dtype=bool)
    if lo is not None:
        mask &= (values >= lo) if lo_incl else (values > lo)
    if hi is not None:
        mask &= (values <= hi) if hi_incl else (values < hi)
    return mask


def propagate_append(recycler, catalog, delta: TableDelta) -> int:
    """Refresh eligible select entries from an append-only *delta*.

    Returns the number of propagated entries.  Each propagated entry:

    1. gets the qualifying delta rows appended to its BAT (in place, so the
       lineage token survives);
    2. has its signature re-keyed to the *new* bind token of the updated
       column, so future template instances match it;
    3. loses its pool children (their values are stale).
    """
    if not delta.append_only or delta.insert_start is None:
        return 0
    pool = recycler.pool
    propagated = 0
    for entry in list(pool.entries()):
        if not _is_select_over_bind(entry, delta.table):
            continue
        value: BAT = entry.value
        (table, column, _ver), = value.sources
        if column not in delta.inserted:
            continue
        new_vals = np.asarray(delta.inserted[column])
        try:
            lo = entry.sig[2][1]
            hi = entry.sig[3][1]
            lo_incl = bool(entry.sig[4][1])
            hi_incl = bool(entry.sig[5][1])
        except (IndexError, TypeError):
            continue
        # Where the entry would land after re-keying; if something already
        # holds that signature, leave this entry to plain invalidation.
        new_bind = catalog.bind(table, column)
        new_sig = (entry.sig[0], ("b", new_bind.token)) + entry.sig[2:]
        if new_sig != entry.sig and new_sig in pool:
            continue

        mask = _range_mask(new_vals, lo, hi, lo_incl, hi_incl)
        add_heads = np.arange(delta.insert_start,
                              delta.insert_start + len(new_vals),
                              dtype=np.int64)[mask]
        add_tails = new_vals[mask]

        # Children computed from the stale value must go first.
        _drop_dependents(recycler, entry)

        old_bytes = value.owned_nbytes
        if len(add_heads):
            heads = np.concatenate([value.head_values(), add_heads])
            tails = np.concatenate([value.tail_values(), add_tails])
            value.head = heads
            value.tail = tails
            value.tail_sorted = False
            value.owned_nbytes = int(heads.nbytes + tails.nbytes)
        # Re-anchor at the updated column: fresh source + fresh bind token.
        value.sources = new_bind.sources
        value.subset_of = new_bind.token
        value.subset_chain = (new_bind.token,)
        _rekey(pool, entry, new_sig, value.owned_nbytes - old_bytes)
        entry.tuples = len(value)
        propagated += 1
    return propagated


def _drop_dependents(recycler, entry: RecycleEntry) -> None:
    """Remove the transitive pool dependents of *entry* (stale values)."""
    victims = recycler.pool.dependent_thread(entry)
    recycler.pool.remove_set(victims)
    for victim in victims:
        recycler.admission.on_evict(victim)


def _rekey(pool, entry: RecycleEntry, new_sig, bytes_delta: int) -> None:
    """Move *entry* to a new signature after propagation."""
    pool.remove_set([entry])
    entry.sig = new_sig
    entry.nbytes += bytes_delta
    # arg_tokens: the first BAT arg is now the new bind (not pooled; count
    # adjustments for non-pool parents are no-ops).
    entry.arg_tokens = tuple(
        part[1] for part in new_sig[1:] if part[0] == "b"
    )
    pool.add(entry)
