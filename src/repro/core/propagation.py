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
from repro.core.subsumption import select_entry_range
from repro.mal.operators.selection import algebra_select
from repro.storage.bat import BAT, Dense
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


def propagate_append(recycler, catalog, delta: TableDelta) -> int:
    """Refresh eligible select entries from an append-only *delta*.

    Returns the number of propagated entries.  Each propagated entry:

    1. gets the qualifying delta rows — its own selection run over the
       delta BAT ``[insert oids -> inserted values]`` — appended to its BAT
       (in place, so the lineage token survives);
    2. has its signature re-keyed to the *new* bind token of the updated
       column, so future template instances match it;
    3. loses its pool children (their values are stale).
    """
    if not delta.append_only or delta.insert_start is None:
        return 0
    pool = recycler.pool
    propagated = 0
    for entry in pool.table_entries(delta.table):
        if not _is_select_over_bind(entry, delta.table):
            continue
        value: BAT = entry.value
        (table, column, _ver), = value.sources
        if column not in delta.inserted:
            continue
        rng = select_entry_range(entry)
        if rng is None:
            continue
        # Where the entry would land after re-keying; if something already
        # holds that signature, leave this entry to plain invalidation.
        new_bind = catalog.bind(table, column)
        new_sig = (entry.sig[0], ("b", new_bind.token)) + entry.sig[2:]
        if new_sig != entry.sig and new_sig in pool:
            continue

        new_vals = np.asarray(delta.inserted[column])
        added = algebra_select(
            None, BAT(Dense(delta.insert_start, len(new_vals)), new_vals,
                      owned_nbytes=0),
            rng.lo, rng.hi, rng.lo_incl, rng.hi_incl)

        # Children computed from the stale value must go first.
        recycler.drop(pool.dependent_thread(entry))

        old_bytes = value.owned_nbytes
        if len(added):
            heads = np.concatenate([value.head_values(), added.head_values()])
            tails = np.concatenate([value.tail_values(), added.tail_values()])
            value.head = heads
            value.tail = tails
            value.tail_sorted = False
            value.owned_nbytes = int(heads.nbytes + tails.nbytes)
        # Re-anchor at the updated column: fresh source + fresh bind token.
        value.sources = new_bind.sources
        value.subset_chain = (new_bind.token,)
        _rekey(pool, entry, new_sig, value.owned_nbytes - old_bytes)
        entry.tuples = len(value)
        propagated += 1
    return propagated


def _rekey(pool, entry: RecycleEntry, new_sig, bytes_delta: int) -> None:
    """Move *entry* to a new signature after propagation."""
    pool.remove_set([entry])
    entry.sig = new_sig
    # The lineage key names the old bind token; a warm walk that hits
    # the entry at a frontier instruction books it under the new one.
    entry.lineage = None
    entry.nbytes += bytes_delta
    # arg_tokens: the first BAT arg is now the new bind (not pooled; count
    # adjustments for non-pool parents are no-ops).
    entry.arg_tokens = tuple(
        part[1] for part in new_sig[1:] if part[0] == "b"
    )
    pool.add(entry)
