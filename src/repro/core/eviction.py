"""Eviction policies (paper §4.3).

All policies operate on *leaf* entries only — eviction respects instruction
dependencies so whole execution threads stay matchable (§4.1).  The
recycler calls :meth:`EvictionPolicy.pick` with the current leaf set; when
the picked leaves do not release enough, removal exposes new leaves and the
recycler iterates (the paper's "another iteration of the algorithm").

Two resource limits trigger cleaning (§4.3): the number of pool entries
("cache lines") and the memory held by intermediates.  For the memory
limit, the Benefit/History policies solve the complementary binary-knapsack
problem with the classic greedy approximation (profit-per-unit-weight order
plus the max-profit-item alternative, worst case within 2x of optimal).

Degenerate frontiers: under byte pressure ``_by_need_bytes`` may return
the *entire* leaf set while freeing zero bytes — every leaf a zero-byte
view over a spilled (or shared) child.  Policies need not handle this;
the recycler's sweep detects the no-progress round and falls back to
entry-count eviction so the byte-carrying parents become reachable (the
progress guarantee in ``Recycler._ensure_capacity_locked``, pinned by
``tests/test_eviction_progress.py``).
"""

from __future__ import annotations

import math
import operator
from typing import Callable, List, Optional, Sequence

from repro.core.pool import RecycleEntry


class EvictionPolicy:
    """Chooses leaves to evict given the resource pressure.

    ``leaf_key``, when set, is the order :meth:`pick` uses under entry
    pressure alone (``need_bytes <= 0``): the smallest ``(leaf_key(e),
    seq)`` first.  It must change only when an entry is reused; the pool
    then keeps its leaves in that order (:class:`~repro.core.pool.
    LeafOrder`) and the recycler pops victims from it instead of calling
    :meth:`pick`.
    """

    name = "base"
    leaf_key: Optional[Callable[[RecycleEntry], float]] = None

    def pick(self, leaves: Sequence[RecycleEntry], need_bytes: int,
             need_entries: int, now: float) -> List[RecycleEntry]:
        """Return a non-empty subset of *leaves* to evict.

        ``need_bytes``/``need_entries`` is the remaining amount to free;
        exactly one of them is positive per call.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    @staticmethod
    def _by_need_bytes(ordered: Sequence[RecycleEntry],
                       need_bytes: int) -> List[RecycleEntry]:
        """Take entries in the given order until enough bytes are freed."""
        out: List[RecycleEntry] = []
        freed = 0
        for e in ordered:
            out.append(e)
            freed += e.nbytes
            if freed >= need_bytes:
                break
        return out


class LruEviction(EvictionPolicy):
    """Evict the least recently used leaves."""

    name = "lru"
    leaf_key = operator.attrgetter("last_used")

    def pick(self, leaves, need_bytes, need_entries, now):
        if need_bytes <= 0 and need_entries <= 1:
            # Fast path: the common steady-state case at the entry limit.
            return [min(leaves, key=lambda e: e.last_used)]
        ordered = sorted(leaves, key=lambda e: e.last_used)
        if need_bytes > 0:
            return self._by_need_bytes(ordered, need_bytes)
        return ordered[:max(1, need_entries)]


def benefit(entry: RecycleEntry) -> float:
    """The paper's benefit ``B(I) = Cost(I) * Weight(I)`` (equations 1-2).

    ``k`` counts total references; globally reused intermediates weigh
    ``k - 1``, never/only-locally reused ones a token ``0.1``.
    """
    k = entry.references
    if k > 1 and entry.global_reuses > 0:
        weight = float(k - 1)
    else:
        weight = 0.1
    return entry.cost * weight


def history_benefit(entry: RecycleEntry, now: float) -> float:
    """The History policy's aged benefit (equation 3)."""
    age = max(now - entry.admitted_at, 1e-9)
    return benefit(entry) / age


# ---------------------------------------------------------------------------
# Demote-vs-destroy (two-tier pool)
# ---------------------------------------------------------------------------
def should_demote(entry: RecycleEntry, round_trip_seconds: float) -> bool:
    """Demote-vs-destroy for an eviction victim with a spill tier attached.

    Demoting pays a write now and a reload at the next reference; what
    it buys is the paper's benefit ``B(I) = Cost(I) * Weight(I)``
    (equations 1-2): the recomputation saved, weighted by how often the
    entry has proven to be wanted — ``k - 1`` once it was globally
    reused, a token 0.1 before.  So a victim goes to disk iff its benefit
    is at least *round_trip_seconds*, which the caller reads from the
    store's own measurements
    (:meth:`repro.storage.spill.SpillStore.round_trip_cost`); a cheap or
    never-reused victim is destroyed, as in the single-tier pool.

    Three structural cases come first.  A stable-token producer
    (persistent bind, join index) is never demoted: the catalogue hands
    the same BAT back for nothing and its dependents stay matchable
    without it.  A victim whose dependents are already on disk follows
    them, whatever it costs: destroying it would strand — and therefore
    drop — images already paid for.  That covers the zero-byte views in
    the middle of execution threads (the image holds the view's
    materialised columns); a childless view holds no memory worth
    reclaiming and is destroyed, since recomputing it over its promoted
    operand is free.
    """
    if entry.token_is_stable:
        return False
    if entry.spilled_dependents > 0:
        return True
    if entry.nbytes <= 0:
        return False
    return benefit(entry) >= round_trip_seconds


class _CostBasedEviction(EvictionPolicy):
    """Shared machinery of the Benefit and History policies."""

    def _benefit(self, entry: RecycleEntry, now: float) -> float:
        raise NotImplementedError

    def pick(self, leaves, need_bytes, need_entries, now):
        if need_bytes > 0:
            return self._pick_memory(leaves, need_bytes, now)
        if need_entries <= 1:
            return [min(leaves, key=lambda e: self._benefit(e, now))]
        ordered = sorted(leaves, key=lambda e: self._benefit(e, now))
        return ordered[:need_entries]

    # -- BPent / HPent -------------------------------------------------
    # (handled by the sort above: smallest benefit first)

    # -- BPmem / HPmem: greedy knapsack on the keep-set ------------------
    def _pick_memory(self, leaves, need_bytes, now):
        total = sum(e.nbytes for e in leaves)
        capacity = total - need_bytes
        if capacity <= 0:
            return list(leaves)  # evict all leaves; recycler iterates
        profits = {e.sig: self._benefit(e, now) for e in leaves}

        def greedy_keep() -> List[RecycleEntry]:
            # Density order; zero-size leaves always fit (infinite density).
            ordered = sorted(
                leaves,
                key=lambda e: (
                    -(profits[e.sig] / e.nbytes) if e.nbytes
                    else -math.inf
                ),
            )
            kept, used = [], 0
            for e in ordered:
                if used + e.nbytes <= capacity:
                    kept.append(e)
                    used += e.nbytes
            return kept

        kept = greedy_keep()
        # Worst-case guard: compare with keeping just the max-profit item.
        best_single = max(leaves, key=lambda e: profits[e.sig])
        if (best_single.nbytes <= capacity
                and profits[best_single.sig]
                > sum(profits[e.sig] for e in kept)):
            kept = [best_single]
        kept_sigs = {e.sig for e in kept}
        victims = [e for e in leaves if e.sig not in kept_sigs]
        return victims or list(leaves)


class BenefitEviction(_CostBasedEviction):
    """BP: evict the leaves contributing least ``Cost * Weight``."""

    name = "bp"
    leaf_key = staticmethod(benefit)

    def _benefit(self, entry: RecycleEntry, now: float) -> float:
        return benefit(entry)


class HistoryEviction(_CostBasedEviction):
    """HP: BP aged by time since admission (Watchman-style profit).

    Its key reorders as time passes, so no static order holds: HP keeps
    the scan over every leaf."""

    name = "hp"

    def _benefit(self, entry: RecycleEntry, now: float) -> float:
        return history_benefit(entry, now)
