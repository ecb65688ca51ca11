"""Recycler run-time support (paper §3.3, Algorithm 1).

The :class:`Recycler` is attached to an interpreter and wraps every marked
instruction:

* ``recycle_entry`` — exact-match lookup in the pool, then (on miss) the
  subsumption driver of §5, which runs the instruction's own operator over
  pooled results that contain its answer; a hit brings the (pooled or
  narrowed) intermediate to the execution stack and skips execution.
* ``recycle_exit`` — offers a freshly computed result to the pool under
  the admission policy, cleaning the cache first when a resource limit
  (bytes and/or entries) would be exceeded.

Before that walk, :meth:`Recycler.serve_frontier` tries to serve the
whole invocation top-down: it finds the entries at the program's
frontier by lineage key, checks their cones down the token index, and
books every marked instruction as the exact hit the walk would make.
The walk runs unchanged whenever that cannot be proven exact.

Update synchronisation (§6.4) enters through :meth:`on_update`, after DML
and after ``DROP TABLE`` alike: an entry is stale when one of its sources
names a column version that is no longer the catalogue's current one.

Two-tier pool: with ``spill_dir`` configured, eviction under *memory*
pressure **demotes** a victim to a disk-backed
:class:`~repro.storage.spill.SpillStore` instead of destroying it when
its benefit exceeds the disk round trip as the store measures it
(:func:`~repro.core.eviction.should_demote`), or when it still has its
image from an earlier demotion; a later match **promotes** the entry
back — a cheaper hit than recomputation.  Entry-count pressure still
destroys, since a spilled entry occupies a cache line all the same.

Concurrency contract (multi-session mode, :mod:`repro.server`): every
pool operation — exact lookup and hit booking, the §5 subsumption
search, admission with its eviction sweep, promotion, invalidation,
``recycle_reset``/``close``, ``check_invariants`` —
runs under the one :attr:`RecyclePool.lock <repro.core.pool.RecyclePool.lock>`.
The same lock guards the lifetime totals, the admission policy's state,
the in-flight invocation registry and each invocation's touched set.
Only operator execution runs outside it — the instruction's own, and the
same operator run by the subsumption driver over pooled, immutable BATs.
Hits, admissions, evictions and demotions are booked once, on the
running invocation's :class:`~repro.mal.interpreter.ExecutionStats`, and
folded into the lifetime totals when the invocation ends.  Eviction —
including demotion and disk-quota reclaim — protects the union of all
*active* invocations' touched sets, generalising the §4.3 single-query
protection rule.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.admission import AdmissionPolicy, KeepAllAdmission
from repro.core.eviction import EvictionPolicy, LruEviction, should_demote
from repro.core.pool import (
    RecycleEntry,
    RecyclePool,
    Signature,
    make_signature,
)
from repro.core.subsumption import (
    covers,
    find_combined_cover,
    like_subsumes,
    select_entry_range,
    select_target,
    split_target_into_segments,
)
from repro.errors import SpillError
from repro.mal.interpreter import ExecutionStats
from repro.mal.program import ConePlan, Instr, MalProgram
from repro.storage.bat import BAT
from repro.storage.spill import SpilledStub, SpillStore


#: A byte-pressure sweep frees this fraction (1/N) of ``max_bytes`` beyond
#: what it was asked for: listing, ordering and protecting the candidates
#: costs the same for one victim as for twenty.
SWEEP_HEADROOM = 64


@dataclass
class RecyclerConfig:
    """Tunables of the recycler (§3.2, §4).

    ``max_bytes``/``max_entries`` of None mean unlimited (the paper's
    KEEPALL/unlimited baseline).

    ``spill_dir`` enables the two-tier pool: eviction victims whose
    benefit exceeds the measured cost of a disk round trip are demoted to
    image files in this directory instead of destroyed, bounded by
    ``spill_limit_bytes`` (None = unlimited disk tier).
    """

    max_bytes: Optional[int] = None
    max_entries: Optional[int] = None
    subsumption: bool = True
    spill_dir: Optional[str] = None
    spill_limit_bytes: Optional[int] = None


@dataclass
class RecyclerTotals:
    """Cumulative counters across the recycler's lifetime.

    The counters an invocation also keeps (same names as on its
    :class:`~repro.mal.interpreter.ExecutionStats`) are the sum of every
    ended invocation's record — see :meth:`add`; the others have no
    per-query meaning and are booked where the event happens.
    """

    invocations: int = 0
    exact_hits: int = 0
    subsumed_hits: int = 0
    combined_hits: int = 0
    local_hits: int = 0
    global_hits: int = 0
    admissions: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Disk-tier counters (two-tier pool; all zero without ``spill_dir``).
    demotions: int = 0           # victims moved to disk instead of destroyed
    spill_writes: int = 0        # ... of which wrote their image
    clean_demotions: int = 0     # ... of which still had it: no I/O
    promotions: int = 0          # spilled entries brought back to memory
    promoted_hits: int = 0       # hits that needed at least one promotion
    spill_evictions: int = 0     # evictions of entries that were on disk
    spill_errors: int = 0        # corrupt/unreadable spill entries dropped
    saved_time: float = 0.0
    subsumption_algo_time: float = 0.0
    subsumption_algo_calls: int = 0
    combined_search_time: float = 0.0
    combined_search_calls: int = 0

    def add(self, stats: ExecutionStats) -> None:
        """Fold one ended invocation's record into the shared counters."""
        self.exact_hits += stats.exact_hits
        self.subsumed_hits += stats.subsumed_hits
        self.promoted_hits += stats.promoted_hits
        self.local_hits += stats.local_hits
        self.global_hits += stats.global_hits
        self.admissions += stats.admissions
        self.evictions += stats.evictions
        self.demotions += stats.demotions
        self.saved_time += stats.saved_time


class Invocation:
    """Per-invocation recycler state: protection set and statistics."""

    __slots__ = ("id", "program", "stats", "touched", "cones", "params",
                 "served")

    def __init__(self, inv_id: int, program: MalProgram, stats):
        self.id = inv_id
        self.program = program
        self.stats = stats
        #: signatures matched or admitted by this invocation — protected
        #: from eviction while the query runs (§4.3).  Guarded by the pool
        #: lock: the owning session adds while eviction sweeps (other
        #: sessions) read.
        self.touched: Set[Signature] = set()
        #: The program's cone plan (None on its first invocation) and the
        #: parameter values in its slot order, set by
        #: :meth:`Recycler.serve_frontier`.
        self.cones: Optional[ConePlan] = None
        self.params: Tuple = ()
        #: pc -> value of every marked instruction, once the invocation
        #: has been served from the pool (already booked).
        self.served: Optional[Dict[int, BAT]] = None


class Recycler:
    """The recycle-pool manager bolted onto the MAL interpreter."""

    SUBSUMABLE_OPS = {
        "algebra.select",
        "algebra.uselect",
        "algebra.inselect",
        "algebra.likeselect",
        "algebra.semijoin",
    }

    def __init__(
        self,
        admission: Optional[AdmissionPolicy] = None,
        eviction: Optional[EvictionPolicy] = None,
        config: Optional[RecyclerConfig] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.admission = admission or KeepAllAdmission()
        self.eviction = eviction or LruEviction()
        self.config = config or RecyclerConfig()
        self.clock = clock
        self.pool = RecyclePool()
        self.spill: Optional[SpillStore] = None
        if self.config.spill_dir is not None:
            self.spill = SpillStore(self.config.spill_dir,
                                    self.config.spill_limit_bytes)
            self.spill.clock = clock
            self.pool.spill = self.spill
        self.totals = RecyclerTotals()
        self._invocation_ids = itertools.count(1)
        #: In-flight invocations (any session) — their touched entries are
        #: protected from eviction (§4.3, multi-session generalisation).
        self._active: Dict[int, Invocation] = {}

    @property
    def _limited(self) -> bool:
        """Is any resource limit configured?  Only then can an admission
        or a promotion need an eviction sweep."""
        return (self.config.max_bytes is not None
                or self.config.max_entries is not None)

    # ------------------------------------------------------------------
    # Interpreter-facing API (Algorithm 1)
    # ------------------------------------------------------------------
    def begin_invocation(self, program: MalProgram, stats) -> Invocation:
        inv = Invocation(next(self._invocation_ids), program, stats)
        with self.pool.lock:
            self.totals.invocations += 1
            self.admission.on_invocation_start(program.name)
            self._active[inv.id] = inv
        return inv

    def end_invocation(self, invocation: Optional[Invocation]) -> None:
        """Retire the invocation and fold its record into the totals."""
        if invocation is not None:
            with self.pool.lock:
                self._active.pop(invocation.id, None)
                invocation.touched.clear()
                self.totals.add(invocation.stats)

    def serve_frontier(self, inv: Invocation, stack: List[Any]) -> bool:
        """Serve every marked instruction of the invocation from the pool
        top-down, or nothing (§3.4's bottom-up walk then runs as before).

        Each frontier entry is found by its lineage key and its cone by
        following signature tokens down ``by_token``.  This is exact: the
        entry was keyed by a run with the same parameters and leaf
        tokens, so each signature in its cone is the one that run
        computed at that instruction, and the walk would compute it again
        from the same leaves.  So when every marked instruction maps to a
        resident entry this way — one entry per instruction, each the
        producer of the token its consumers name — each is booked as the
        exact hit the walk would have made, in program order, under one
        hold of the pool lock, and :meth:`recycle_entry` then answers each
        marked instruction from that booking without touching the pool.
        Anything else (a missing or spilled entry, a token that leads
        elsewhere) serves nothing.  Returns whether the invocation was
        served.
        """
        cones = inv.program.warm_cones()
        if cones is None:
            return False
        inv.cones = cones
        inv.params = params = tuple(stack[v] for v in cones.params)
        if not cones.fast:
            return False
        pool = self.pool
        with pool.lock:
            by_sig, by_token = pool.by_sig, pool.by_token
            leaves = []
            for sig in cones.leaves:
                entry = by_sig.get(sig)
                if entry is None or not isinstance(entry.value, BAT):
                    return False
                leaves.append(entry)
            tokens = tuple(e.result_token for e in leaves)
            values = params + tokens
            leaf_parts = [("b", t) for t in tokens]
            found = {pc: leaves[leaf] for pc, leaf in cones.leaf_pcs}
            by_lineage = pool.by_lineage
            for pc, (shape, pick, _leaves) in cones.key_of.items():
                entry = by_lineage.get((shape, pick(values)))
                if entry is None or not isinstance(entry.value, BAT):
                    return False
                found[pc] = entry
            for pc, leaf_args, args in cones.walk:
                entry = found.get(pc)
                if entry is None:
                    return False
                sig = entry.sig
                for pos, leaf in leaf_args:
                    if sig[pos] != leaf_parts[leaf]:
                        return False
                for pos, child_pc, opname in args:
                    part = sig[pos]
                    if part[0] != "b":
                        return False
                    child = by_token.get(part[1])
                    if (child is None or child.opname != opname
                            or not isinstance(child.value, BAT)
                            or found.setdefault(child_pc, child)
                            is not child):
                        return False
            if len(found) != len(cones.book):
                return False
            self._book_served(inv, [found[pc] for pc, _opdef in cones.book],
                              cones.n_nonbind)
        inv.served = {pc: entry.value for pc, entry in found.items()}
        return True

    def _book_served(self, inv: Invocation, entries: List[RecycleEntry],
                     n_nonbind: int) -> None:
        """Book *entries* (in program order) as the resident exact hits
        :meth:`_book_exact` would book one by one.  Every hit is global:
        a served invocation has admitted nothing yet.  Caller holds the
        pool lock."""
        stats, touched, clock = inv.stats, inv.touched, self.clock
        on_global_reuse = self.admission.on_global_reuse
        saved_time, saved_global = stats.saved_time, stats.saved_global
        for entry in entries:
            cost = entry.cost
            entry.last_used = clock()
            entry.saved_time += cost
            entry.global_reuses += 1
            on_global_reuse(entry)
            saved_time += cost
            saved_global += cost
            touched.add(entry.sig)
        stats.saved_time, stats.saved_global = saved_time, saved_global
        if self.pool.leaf_order is not None:
            for entry in entries:
                self.pool.leaf_order.update(entry)
        stats.exact_hits += len(entries)
        stats.global_hits += len(entries)
        stats.global_hits_nonbind += n_nonbind

    def recycle_entry(self, inv: Invocation, instr: Instr, opdef,
                      args: Tuple) -> Optional[BAT]:
        """Pool lookup (exact, then subsumption).  None means: execute.

        An instruction of a served invocation (:meth:`serve_frontier`)
        gets the value booked for it; its *args* are not read."""
        if inv.served is not None:
            return inv.served[instr.pc]
        sig = make_signature(instr.opname, args)
        with self.pool.lock:
            entry = self.pool.lookup(sig)
            if entry is not None:
                # A corrupt spill image drops the entry, and the
                # instruction falls through to subsumption / execution.
                value, promoted = self._resident(inv, entry)
                if value is not None:
                    self._book_exact(inv, entry, opdef, promoted)
                    if (inv.cones is not None
                            and instr.pc in inv.cones.key_of):
                        # A frontier entry another program admitted, or
                        # one admitted before this program was planned.
                        key = self._lineage(inv, instr.pc)
                        if key is not None:
                            self.pool.book_lineage(entry, key)
                    return value
        if (self.config.subsumption
                and instr.opname in self.SUBSUMABLE_OPS
                and isinstance(args[0], BAT)):
            return self._subsume(inv, instr, opdef, sig, args)
        return None

    def recycle_exit(self, inv: Invocation, instr: Instr, opdef,
                     args: Tuple, value: Any, elapsed: float) -> None:
        """Admission decision for a genuinely executed instruction."""
        sig = make_signature(instr.opname, args)
        self._admit(inv, instr, opdef, sig, args, value, elapsed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _book_exact(self, inv: Invocation, entry: RecycleEntry, opdef,
                    promoted: bool) -> None:
        """Book an exact hit (resident or just-promoted).  Caller holds
        the pool lock."""
        # A promoted hit is cheaper than recomputation but not free:
        # credit the recorded cost minus the measured reload cost.
        saved = entry.cost
        if promoted:
            reload = self.spill.load_cost.estimate(entry.nbytes)
            saved = max(entry.cost - reload, 0.0)
            inv.stats.promoted_hits += 1
        local = self._record_reuse(inv, entry, saved=saved)
        inv.stats.exact_hits += 1
        inv.stats.saved_time += saved
        if local:
            inv.stats.saved_local += saved
            if opdef.kind != "bind":
                inv.stats.local_hits_nonbind += 1
        else:
            inv.stats.saved_global += saved
            if opdef.kind != "bind":
                inv.stats.global_hits_nonbind += 1
        inv.touched.add(entry.sig)

    def _lineage(self, inv: Invocation, pc: int) -> Optional[Tuple]:
        """The lineage key of frontier instruction *pc* in this invocation,
        or None while a leaf of its cone is not pooled.  Caller holds the
        pool lock."""
        cones = inv.cones
        shape, pick, leaves = cones.key_of[pc]
        values = list(inv.params) + [0] * len(cones.leaves)
        base = len(inv.params)
        for i in leaves:
            entry = self.pool.by_sig.get(cones.leaves[i])
            if entry is None:
                return None
            values[base + i] = entry.result_token
        return shape, pick(values)

    def _record_reuse(self, inv: Invocation, entry: RecycleEntry,
                      subsumed: bool = False,
                      saved: Optional[float] = None) -> bool:
        """Update reuse statistics; returns True for a *local* reuse.

        *saved* overrides the credited time for this reuse (promoted hits
        save less than the full recomputation cost).  Caller holds the
        pool lock.
        """
        entry.last_used = self.clock()
        entry.saved_time += entry.cost if saved is None else saved
        if subsumed:
            entry.subsumed_reuses += 1
        local = entry.invocation_id == inv.id
        if local:
            entry.local_reuses += 1
            inv.stats.local_hits += 1
            self.admission.on_local_reuse(entry)
        else:
            entry.global_reuses += 1
            inv.stats.global_hits += 1
            self.admission.on_global_reuse(entry)
        if self.pool.leaf_order is not None:
            self.pool.leaf_order.update(entry)
        return local

    def _admit(self, inv: Invocation, instr: Instr, opdef, sig: Signature,
               args: Tuple, value: Any, elapsed: float) -> None:
        if not isinstance(value, BAT):
            return
        key = (inv.program.name, instr.pc)
        nbytes = value.owned_nbytes
        max_bytes = self.config.max_bytes
        with self.pool.lock:
            if (sig in self.pool
                    or not self.admission.should_admit(key, nbytes,
                                                       len(value))
                    or (max_bytes is not None and nbytes > max_bytes)):
                return  # pooled already, refused, or can never fit
            if self._limited:
                self._ensure_capacity_locked(inv, nbytes)
            now = self.clock()
            cones = inv.cones
            entry = RecycleEntry(
                sig=sig,
                opname=instr.opname,
                kind=opdef.kind,
                value=value,
                cost=elapsed,
                nbytes=nbytes,
                tuples=len(value),
                template_key=key,
                invocation_id=inv.id,
                admitted_at=now,
                last_used=now,
                arg_tokens=tuple(
                    a.token for a in args if isinstance(a, BAT)
                ),
                lineage=(self._lineage(inv, instr.pc)
                         if cones is not None and instr.pc in cones.key_of
                         else None),
            )
            self.pool.add(entry)
            self.admission.on_admit(key)
            inv.touched.add(sig)
        inv.stats.admissions += 1
        inv.stats.admitted_bytes += nbytes

    # ------------------------------------------------------------------
    # Two-tier moves (spill_dir configured)
    # ------------------------------------------------------------------
    def _promote_entry(self, inv: Invocation,
                       entry: RecycleEntry) -> Optional[BAT]:
        """Reload a spilled entry into memory; None when the spill is bad.

        A corrupt or missing spill file drops the stub from the pool (the
        caller falls back to recomputation — correctness never depends on
        the disk tier).  A successful promotion may push the memory tier
        over its limit, so capacity is re-balanced with the promoted
        entry protected.

        Returns the reloaded BAT itself, **not** ``entry.value``: the
        capacity re-balance may — when every other leaf is protected —
        demote the freshly promoted entry right back, and the caller must
        still serve the real BAT, never the stub.

        The entry is revalidated under the pool lock — a concurrent
        eviction may have removed it (miss), a concurrent hit may have
        promoted it (serve the resident value).
        """
        with self.pool.lock:
            if self.pool.lookup(entry.sig) is not entry:
                return None  # evicted while we waited: treat as a miss
            if not entry.is_spilled:
                return entry.value  # promoted by a concurrent session
            try:
                value = self.spill.load(entry.result_token)
            except SpillError:
                # Same cascade rule as eviction's destroy path: a dropped
                # producer strands its spilled dependent thread, unless
                # its token is stable across re-admission.
                if entry.dependents and not entry.token_is_stable:
                    self._drop_dependent_thread(inv, entry)
                self.drop([entry])
                self.totals.spill_errors += 1
                return None
            self.pool.promote(entry, value)
            self.totals.promotions += 1
            inv.touched.add(entry.sig)
            # Promotion adds bytes but no pool entry: reserve no
            # admission slot, or every promoted hit at the entry limit
            # would evict.
            if self._limited:
                self._ensure_capacity_locked(inv, 0, incoming_entries=0)
            return value

    def _resident(self, inv: Invocation, entry: RecycleEntry
                  ) -> Tuple[Optional[BAT], bool]:
        """The entry's BAT, and whether it had to be promoted first.

        The BAT is None when the spill image is bad (the entry is then
        dropped).  A spilled entry holds a stub, not a BAT — also when it
        was demoted between the subsumption search and this read; the
        promotion revalidates under the pool lock.
        """
        value = entry.value
        if isinstance(value, BAT):
            return value, False
        value = self._promote_entry(inv, entry)
        return value, value is not None

    def _count_evicted(self, inv: Invocation,
                       victims: Sequence[RecycleEntry]) -> None:
        """Book destroyed entries — with the admission policy and on the
        evicting invocation's own record.  Caller holds the pool lock."""
        for v in victims:
            self.admission.on_evict(v)
            if v.is_spilled:
                self.totals.spill_evictions += 1
        inv.stats.evictions += len(victims)

    def _reclaim_spill_room(self, inv: Invocation, nbytes: int,
                            protected: Set[Signature]) -> bool:
        """Free disk-tier quota for an image of *nbytes*.

        Images of *resident* entries go first: dropping one loses no
        data, only that entry's zero-I/O re-demotion.  Then spilled
        leaves are destroyed, least recently used first (they already
        lost the memory-tier contest once).  Returns whether the store
        now has room.  Caller holds the pool lock (eviction path).
        """
        spill = self.spill
        if spill.room_for(nbytes):
            return True
        for entry in list(self.pool.resident_images.values()):
            self.pool.drop_image(entry)
            if spill.room_for(nbytes):
                return True
        reclaimable = sorted(
            (e for e in self.pool.spilled_leaves()
             if e.sig not in protected),
            key=lambda e: e.last_used,
        )
        for victim in reclaimable:
            self.pool.remove(victim)
            self._count_evicted(inv, [victim])
            if spill.room_for(nbytes):
                return True
        return False

    def _drop_dependent_thread(self, inv: Invocation,
                               victim: RecycleEntry) -> None:
        """Drop the transitive pool dependents of a doomed *victim*.

        Used when eviction destroys a demotable entry that still has
        spilled dependents: their signatures reference the victim's
        result token, which can never be minted again, so they could
        never match — dead weight on disk.  Not applied to
        stable-token producers (``RecycleEntry.token_is_stable``).
        Caller holds the pool lock.
        """
        thread = self.pool.dependent_thread(victim)
        self._count_evicted(inv, thread)
        self.pool.remove_set(thread)

    def _demote_entry(self, inv: Invocation, victim: RecycleEntry,
                      protected: Set[Signature]) -> bool:
        """Try to demote an eviction victim; False means destroy it.

        A victim that still has its image from an earlier demotion goes
        back for free (a stub swap); any other must pass
        :func:`~repro.core.eviction.should_demote` at the round-trip cost
        the store has measured.  Caller holds the pool lock."""
        value = victim.value
        spill = self.spill
        if not isinstance(value, BAT):
            return False
        clean = spill.has(value.token)
        if not clean:
            if not value.spillable or not should_demote(
                    victim, spill.round_trip_cost(victim.nbytes)):
                return False
            # A view owns no bytes yet writes its shared columns in
            # full: reclaim against the real image size.
            if not self._reclaim_spill_room(
                    inv, SpilledStub.of(value).size, protected):
                return False
            try:
                spill.write(value)
            except SpillError:
                # Quota race or I/O failure: fall back to destruction.
                return False
        self.pool.demote(victim)
        if clean:
            self.totals.clean_demotions += 1
        else:
            self.totals.spill_writes += 1
        inv.stats.demotions += 1
        return True

    def _ensure_capacity_locked(self, inv: Invocation, incoming_bytes: int,
                                incoming_entries: int = 1) -> None:
        """Evict/demote until the configured limits hold.

        Caller holds the pool lock; returns at once when nothing needs
        freeing.  Guarantees forward progress: a byte-pressure
        round that frees no memory (every victim a zero-byte view over
        spilled children) flips to entry-count eviction, destroying
        leaves outright; a round that neither frees bytes nor removes
        entries terminates the sweep.  A sweep that has to free bytes
        frees ``1/SWEEP_HEADROOM`` of the limit on top, so the admissions
        that follow fit without another one.
        """
        cfg = self.config

        def need_bytes(cur_bytes: int) -> int:
            if cfg.max_bytes is None:
                return 0
            over = cur_bytes + incoming_bytes - cfg.max_bytes
            return over + cfg.max_bytes // SWEEP_HEADROOM if over > 0 else 0

        def need_entries(cur_len: int) -> int:
            if cfg.max_entries is None:
                return 0
            return max(0, cur_len + incoming_entries - cfg.max_entries)

        pool_bytes, pool_len = self.pool.usage()
        if need_bytes(pool_bytes) <= 0 and need_entries(pool_len) <= 0:
            return
        # Protect every in-flight invocation's touched entries, not just
        # ours — another session may be mid-plan over a pooled value.
        protected: Set[Signature] = set(inv.touched)
        for other in self._active.values():
            protected |= other.touched
        dropped_protection = False
        stalled = False
        while True:
            nb, ne = need_bytes(pool_bytes), need_entries(pool_len)
            if nb <= 0 and ne <= 0:
                break
            # Demotion only relieves the memory limit; under entry-count
            # pressure a spilled entry still occupies a cache line, so
            # victims must be destroyed outright.
            byte_mode = nb > 0 and ne <= 0
            indexed = nb <= 0 and self.eviction.leaf_key is not None
            if indexed:
                # Entry pressure alone: the policy's order changes only
                # on reuse, so the pool keeps its leaves in it and the
                # victims are the first unprotected ones — what pick()'s
                # scan over every leaf would choose.
                leaves = self.pool.order_leaves(
                    self.eviction.leaf_key).pop(ne, protected)
            elif byte_mode and self.spill is not None and not stalled:
                # Two-tier byte pressure draws from the demotable set —
                # resident entries with no *resident* dependents — so a
                # parent can follow its spilled children to disk and the
                # whole thread stays matchable.  (Spilled leaves hold no
                # memory-tier bytes; destroying them would not help.)
                leaves = self.pool.demotable(protected)
            else:
                leaves = self.pool.leaves(protected)
            if not leaves:
                if not dropped_protection:
                    # §4.3 exception: a single query filling the whole pool
                    # may evict its own intermediates.
                    dropped_protection = True
                    protected = set()
                    continue
                break
            if indexed:
                victims = leaves
            elif byte_mode and stalled:
                # No-progress fallback (see below): byte-oriented victim
                # selection found only zero-byte views, so switch to
                # entry-count eviction — destroying leaves exposes the
                # byte-carrying parents underneath.
                victims = self.eviction.pick(leaves, 0, 1, self.clock())
            else:
                victims = self.eviction.pick(leaves, nb, ne, self.clock())
            if not victims:
                break
            for victim in victims:
                if victim.sig not in self.pool:
                    continue  # removed by an earlier victim's cascade
                if (byte_mode and not stalled and self.spill is not None
                        and not victim.is_spilled
                        and self._demote_entry(inv, victim, protected)):
                    continue
                if victim.dependents and not victim.token_is_stable:
                    # A destroyed producer's token dies with it, so its
                    # (spilled) dependent thread is unmatchable garbage —
                    # drop it rather than strand it on disk.
                    self._drop_dependent_thread(inv, victim)
                if victim.dependents:
                    # Stable-token producer (persistent bind/index):
                    # dependents stay matchable across re-admission, so
                    # they survive — bypass the leaf-only check.
                    self.pool.remove_set([victim])
                else:
                    self.pool.remove(victim)
                self._count_evicted(inv, [victim])
            bytes_now, len_now = self.pool.usage()
            freed = pool_bytes - bytes_now
            removed = pool_len - len_now
            pool_bytes, pool_len = bytes_now, len_now
            if freed <= 0 and removed <= 0:
                # The whole round demoted only zero-byte views over
                # spilled children: no memory came back and the pool
                # shrank by nothing.  Fall back to entry-count eviction
                # next round — destroying a leaf exposes the
                # byte-carrying parents underneath (§4.3 progress
                # guarantee; see tests/test_eviction_progress.py).
                if stalled:
                    break  # even destruction moved nothing: give up
                stalled = True
            else:
                stalled = False

    # ------------------------------------------------------------------
    # Subsumption (paper §5)
    # ------------------------------------------------------------------
    def _subsume(self, inv: Invocation, instr: Instr, opdef,
                 sig: Signature, args: Tuple) -> Optional[BAT]:
        """Answer the instruction from pooled results that contain its
        answer: run its own operator over each covering BAT instead of
        the operand.

        The search (:meth:`_cover`) runs under the pool lock and protects
        the chosen entries; the operator runs outside it, since pooled
        BATs are immutable.  A cover whose spill image is bad falls back
        to execution.  Search plus materialisation time is booked once
        per attempt, hit or not.
        """
        operand: BAT = args[0]
        t0 = self.clock()
        with self.pool.lock:
            cover, combined = self._cover(inv, instr.opname, operand, args)
        value, promoted_any = None, False
        if cover:
            value, promoted_any = self._run_cover(inv, opdef, operand,
                                                  cover)
        algo_time = self.clock() - t0
        with self.pool.lock:
            self.totals.subsumption_algo_time += algo_time
            self.totals.subsumption_algo_calls += 1
            if value is None:
                return None
            if combined:
                self.totals.combined_hits += 1
            for entry, _piece_args in cover:
                self._record_reuse(inv, entry, subsumed=True)
        inv.stats.subsumed_hits += 1
        if promoted_any:
            inv.stats.promoted_hits += 1
        # The (cheaper) subsumed result is admitted under the original
        # signature so future instances match exactly.
        self._admit(inv, instr, opdef, sig, args, value, elapsed=algo_time)
        return value

    def _cover(self, inv: Invocation, opname: str, operand: BAT,
               args: Tuple) -> Tuple[List[Tuple[RecycleEntry, Tuple]], bool]:
        """The pooled entries to answer the instruction from, each with
        the arguments to run its operator with over that entry's BAT, and
        whether the cover is a combined one (§5.2).  Empty when nothing
        covers.  The chosen entries join the touched set.  Caller holds
        the pool lock.
        """
        token = operand.token
        cover: List[Tuple[RecycleEntry, Tuple]] = []
        combined = False
        if opname == "algebra.likeselect":
            # The first pooled pattern, in bucket order, that subsumes.
            for entry in self.pool.candidates(opname, token):
                if like_subsumes(entry.sig[2][1], args[1]):
                    cover = [(entry, args[1:])]
                    break
        elif opname == "algebra.semijoin":
            # The smallest pooled semijoin whose filter is a lineage
            # superset of ours.
            best = None
            for entry in self.pool.candidates(opname, token):
                kind, filter_token = entry.sig[2]
                if kind == "b" and args[1].row_subset_of(filter_token) \
                        and (best is None or entry.tuples < best.tuples):
                    best = entry
            if best is not None:
                cover = [(best, args[1:])]
        else:
            # Range, equality and IN-list selections all subsume from
            # pooled range selects.  No target: an empty IN-list.
            target = select_target(opname, args)
            ranged = []
            if target is not None:
                for entry in self.pool.candidates("algebra.select", token):
                    rng = select_entry_range(entry)
                    if rng is not None:
                        ranged.append((rng, entry))
            singles = [e for rng, e in ranged if covers(rng, target)]
            if singles:
                # Cost model: the smallest intermediate wins (§5.1).
                cover = [(min(singles, key=lambda e: e.tuples), args[1:])]
            elif opname == "algebra.select":
                search_start = self.clock()
                chosen = find_combined_cover(
                    target,
                    ranged,
                    base_cost=float(len(operand)),
                )
                self.totals.combined_search_time += (self.clock()
                                                     - search_start)
                self.totals.combined_search_calls += 1
                if chosen is not None and len(chosen) >= 2:
                    combined = True
                    cover = [
                        (entry, (seg.lo, seg.hi, seg.lo_incl, seg.hi_incl))
                        for seg, entry in split_target_into_segments(
                            target, chosen)
                    ]
        # Protect every piece before the first promotion: a promotion
        # re-balances capacity and must not demote or destroy a sibling
        # piece about to be read.
        inv.touched.update(entry.sig for entry, _piece_args in cover)
        return cover, combined

    def _run_cover(self, inv: Invocation, opdef, operand: BAT,
                   cover: List[Tuple[RecycleEntry, Tuple]]
                   ) -> Tuple[Optional[BAT], bool]:
        """Run the instruction's operator over each covering BAT.

        Returns the result (None when a spill image is bad) and whether
        any piece had to be promoted.  One piece is re-anchored at the
        operand; several (disjoint segments of a combined cover) are
        concatenated into one materialised BAT.
        """
        pieces, promoted_any = [], False
        for entry, piece_args in cover:
            source, promoted = self._resident(inv, entry)
            if source is None:
                return None, promoted_any
            promoted_any = promoted_any or promoted
            pieces.append(opdef.fn(None, source, *piece_args))
        if len(pieces) == 1:
            # The logical operand is the original BAT: downstream
            # subsumption must see the result as a subset of *that*.
            result = pieces[0]
            if operand.token not in result.subset_chain:
                result.subset_chain = result.subset_chain + (operand.token,)
            return result, promoted_any
        return BAT.materialized(
            np.concatenate([piece.head_values() for piece in pieces]),
            np.concatenate([piece.tail_values() for piece in pieces]),
            sources=operand.sources,
            subset_parent=operand,
        ), promoted_any

    # ------------------------------------------------------------------
    # Update synchronisation (paper §6) and whole-pool operations
    # ------------------------------------------------------------------
    def on_update(self, table: str, catalog) -> int:
        """Synchronise the pool after DML on, or the drop of, *table*.

        Every entry with a source ``(table, column, version)`` whose
        version is not the catalogue's current one goes (§6.4); a
        dropped table has no current version.  Only the table's own
        entries are visited (the pool's ``by_table`` book).  The table
        decides which versions a change bumps (all columns on insert and
        delete, one on an update), so the rule needs no delta.
        Spilled entries take part through their stubs' ``sources``.
        Stale sets are dependency-closed: dependents inherit their
        producers' sources.  Runs under the pool lock — the caller holds
        the table's write lock (or the DDL lock), so no new derivation
        from this table can race the sweep (see
        :mod:`repro.server.locks`).
        Returns the number of invalidated entries.
        """
        with self.pool.lock:
            current = (catalog.table(table).versions
                       if catalog.has_table(table) else {})
            stale = []
            for entry in self.pool.table_entries(table):
                for t, c, v in entry.value.sources:
                    if t == table and current.get(c) != v:
                        stale.append(entry)
                        break
            removed = self.drop(stale)
            self.totals.invalidations += removed
            return removed

    def drop(self, entries: Sequence[RecycleEntry]) -> int:
        """Remove a dependency-closed set of *entries* (``remove_set``)
        and tell the admission policy; returns how many were pooled.
        Caller holds the pool lock."""
        removed = self.pool.remove_set(entries)
        for entry in entries:
            self.admission.on_evict(entry)
        return removed

    def recycle_reset(self) -> int:
        """Drop the whole pool (the paper's ``RecycleReset``)."""
        with self.pool.lock:
            removed = self.pool.clear()
            for entry in removed:
                self.admission.on_evict(entry)
            self.totals.invalidations += len(removed)
            return len(removed)

    def close(self) -> None:
        """Empty the pool and tear down the spill store's run directory.

        Called by :meth:`repro.db.Database.close`; idempotent, and the
        pool invariants hold trivially afterwards (both tiers empty).
        """
        with self.pool.lock:
            self.recycle_reset()
            if self.spill is not None:
                self.spill.close()

    def check_invariants(self) -> None:
        """Verify pool accounting from scratch (tests/debug)."""
        self.pool.check_invariants()
