"""Recycler run-time support (paper §3.3, Algorithm 1).

The :class:`Recycler` is attached to an interpreter and wraps every marked
instruction:

* ``recycle_entry`` — exact-match lookup in the pool, then (on miss) the
  subsumption search of §5; a hit brings the pooled intermediate to the
  execution stack and skips execution.
* ``recycle_exit`` — offers a freshly computed result to the pool under
  the admission policy, cleaning the cache first when a resource limit
  (bytes and/or entries) would be exceeded.

Update synchronisation (§6.4) enters through :meth:`on_update`: immediate,
column-wise invalidation, with optional delta propagation for eligible
select intermediates (the §6.3 design, see :mod:`repro.core.propagation`).

Two-tier pool: with ``spill_dir`` configured, eviction under *memory*
pressure **demotes** a victim to a disk-backed
:class:`~repro.storage.spill.SpillStore` instead of destroying it when
its benefit exceeds the disk round trip as the store measures it
(:func:`~repro.core.eviction.should_demote`), or when it still has its
image from an earlier demotion; a later match **promotes** the entry
back — a cheaper hit than recomputation.  Entry-count pressure still
destroys, since a spilled entry occupies a cache line all the same.

Concurrency contract (multi-session mode, :mod:`repro.server`): pool
state is guarded by the :class:`~repro.core.pool.RecyclePool`'s *shard*
locks — the hot paths (exact lookup, subsumption search, admission
without resource limits, statistics on individual entries) take only the
shards named by the signature/tokens involved, so sessions working on
unrelated lineage proceed in parallel.  Operations that must observe the
whole pool — eviction sweeps under a resource limit, invalidation,
``recycle_reset``/``close``, delta propagation, ``check_invariants`` —
take *all* shard locks in index order (stop-the-world).  Hits,
admissions, evictions and demotions are booked once, on the running
invocation's :class:`~repro.mal.interpreter.ExecutionStats`, and folded
into the lifetime totals when the invocation ends; the totals and the
admission policy's internal state have their own small mutex (acquired
*inside* shard scopes, never around them), and the in-flight invocation
registry another.
Eviction — including demotion and disk-quota reclaim — protects the
union of all *active* invocations' touched sets, generalising the §4.3
single-query protection rule.
"""

from __future__ import annotations

import itertools
import threading
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
    Range,
    SubsumptionOutcome,
    covers,
    find_combined_cover,
    like_subsumes,
    select_entry_range,
    split_target_into_segments,
)
from repro.errors import SpillError
from repro.mal.interpreter import ExecutionStats
from repro.mal.program import Instr, MalProgram
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
    KEEPALL/unlimited baseline).  ``overhead_tuples`` is the ``ov`` term of
    the combined-subsumption cost model (§5.2).

    ``spill_dir`` enables the two-tier pool: eviction victims whose
    benefit exceeds the measured cost of a disk round trip are demoted to
    image files in this directory instead of destroyed, bounded by
    ``spill_limit_bytes`` (None = unlimited disk tier).

    ``pool_shards`` is the recycle-pool shard count (concurrency knob:
    more shards mean less lock contention between sessions; 1 restores
    the single-lock pool).  It does not affect results or eviction order.
    """

    max_bytes: Optional[int] = None
    max_entries: Optional[int] = None
    subsumption: bool = True
    combined_subsumption: bool = True
    propagate_selects: bool = False
    overhead_tuples: float = 0.0
    spill_dir: Optional[str] = None
    spill_limit_bytes: Optional[int] = None
    pool_shards: int = 8


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
    propagated: int = 0
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

    __slots__ = ("id", "program", "stats", "clock", "touched", "_lock")

    def __init__(self, inv_id: int, program: MalProgram, stats,
                 clock: Callable[[], float]):
        self.id = inv_id
        self.program = program
        self.stats = stats
        self.clock = clock
        #: signatures matched or admitted by this invocation — protected
        #: from eviction while the query runs (§4.3).  Guarded by
        #: ``_lock``: the owning session adds while eviction sweeps (other
        #: sessions) snapshot.
        self.touched: Set[Signature] = set()
        self._lock = threading.Lock()

    def touch(self, sig: Signature) -> None:
        with self._lock:
            self.touched.add(sig)

    def touched_snapshot(self) -> Set[Signature]:
        with self._lock:
            return set(self.touched)

    def clear_touched(self) -> None:
        with self._lock:
            self.touched.clear()


@dataclass
class _Reuse:
    value: Any


class _Flag:
    """Mutable bool threaded through the subsumption materialise phase."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = False

    def set(self):
        self.value = True


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
        self.pool = RecyclePool(n_shards=max(1, self.config.pool_shards))
        self.spill: Optional[SpillStore] = None
        if self.config.spill_dir is not None:
            self.spill = SpillStore(self.config.spill_dir,
                                    self.config.spill_limit_bytes)
            self.spill.clock = clock
            self.pool.spill = self.spill
        self.totals = RecyclerTotals()
        self._invocation_ids = itertools.count(1)
        self._invocation_seq = 0
        #: Guards the cumulative totals and the admission policy's mutable
        #: state.  Acquired inside pool shard scopes, never around them.
        self._stats_lock = threading.RLock()
        #: Guards the in-flight invocation registry.
        self._active_lock = threading.Lock()
        #: In-flight invocations (any session) — their touched entries are
        #: protected from eviction (§4.3, multi-session generalisation).
        self._active: Dict[int, Invocation] = {}

    @property
    def _limited(self) -> bool:
        """Is any resource limit configured?  Limits force admissions and
        promotions through the stop-the-world eviction path."""
        return (self.config.max_bytes is not None
                or self.config.max_entries is not None)

    # ------------------------------------------------------------------
    # Interpreter-facing API (Algorithm 1)
    # ------------------------------------------------------------------
    def begin_invocation(self, program: MalProgram, stats,
                         clock: Callable[[], float]) -> Invocation:
        inv_id = next(self._invocation_ids)
        self._invocation_seq = inv_id
        with self._stats_lock:
            self.totals.invocations += 1
            self.admission.on_invocation_start(program.name)
        inv = Invocation(inv_id, program, stats, clock)
        with self._active_lock:
            self._active[inv.id] = inv
        return inv

    def end_invocation(self, invocation: Optional[Invocation]) -> None:
        """Retire the invocation and fold its record into the totals."""
        if invocation is not None:
            with self._active_lock:
                self._active.pop(invocation.id, None)
            invocation.clear_touched()
            with self._stats_lock:
                self.totals.add(invocation.stats)

    def recycle_entry(self, inv: Invocation, instr: Instr, opdef,
                      args: Tuple) -> Optional[_Reuse]:
        """Pool lookup (exact, then subsumption).  None means: execute."""
        sig = make_signature(instr.opname, args)
        entry = self.pool.lookup(sig)
        if entry is not None and not entry.is_spilled:
            value = entry.value
            if isinstance(value, BAT):
                # Resident hit.  The value read is safe without holding
                # the shard lock across the serve: pooled BATs are
                # immutable, so even a concurrent demotion (which swaps
                # in a stub *after* our read) leaves us a valid result.
                # A read that catches the stub instead falls through to
                # the promotion path below.
                return self._serve_exact(inv, entry, opdef, value,
                                         promoted=False)
        if entry is not None:
            # Disk-tier hit: promote before serving.  A corrupt spill
            # entry is dropped and the instruction falls through to the
            # subsumption search / genuine execution.  (The promotion
            # takes the entry's own lock set — or all shards when a
            # resource limit forces a capacity re-balance.)
            value = self._promote_entry(inv, entry)
            if value is not None:
                return self._serve_exact(inv, entry, opdef, value,
                                         promoted=True)

        if (self.config.subsumption
                and instr.opname in self.SUBSUMABLE_OPS
                and isinstance(args[0], BAT)):
            outcome, promoted_any = self._try_subsume(inv, instr.opname,
                                                      args)
            if outcome is not None:
                inv.stats.subsumed_hits += 1
                if promoted_any:
                    inv.stats.promoted_hits += 1
                if outcome.kind == "combined":
                    with self._stats_lock:
                        self.totals.combined_hits += 1
                for used in outcome.used_entries:
                    with self.pool.sig_locked(used.sig):
                        self._record_reuse(inv, used, subsumed=True)
                    inv.touch(used.sig)
                # The (cheaper) subsumed result is admitted under the
                # original signature so future instances match exactly.
                self._admit(inv, instr, opdef, sig, args, outcome.value,
                            elapsed=outcome.algo_seconds)
                return _Reuse(outcome.value)
        return None

    def recycle_exit(self, inv: Invocation, instr: Instr, opdef,
                     args: Tuple, value: Any, elapsed: float) -> None:
        """Admission decision for a genuinely executed instruction."""
        sig = make_signature(instr.opname, args)
        self._admit(inv, instr, opdef, sig, args, value, elapsed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _serve_exact(self, inv: Invocation, entry: RecycleEntry, opdef,
                     value: Any, promoted: bool) -> _Reuse:
        """Book an exact hit (resident or just-promoted) and serve it."""
        # A promoted hit is cheaper than recomputation but not free:
        # credit the recorded cost minus the measured reload cost.
        saved = entry.cost
        if promoted:
            reload = self.spill.load_cost.estimate(entry.nbytes)
            saved = max(entry.cost - reload, 0.0)
            inv.stats.promoted_hits += 1
        with self.pool.sig_locked(entry.sig):
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
        inv.touch(entry.sig)
        return _Reuse(value)

    def _record_reuse(self, inv: Invocation, entry: RecycleEntry,
                      subsumed: bool = False,
                      saved: Optional[float] = None) -> bool:
        """Update reuse statistics; returns True for a *local* reuse.

        *saved* overrides the credited time for this reuse (promoted hits
        save less than the full recomputation cost).  Caller holds the
        entry's signature-home shard lock (entry statistics guard).
        """
        entry.reuse_count += 1
        entry.last_used = inv.clock()
        entry.saved_time += entry.cost if saved is None else saved
        if subsumed:
            entry.subsumed_reuses += 1
        if entry.invocation_id == inv.id:
            entry.local_reuses += 1
            inv.stats.local_hits += 1
            with self._stats_lock:
                self.admission.on_local_reuse(entry)
            return True
        entry.global_reuses += 1
        inv.stats.global_hits += 1
        with self._stats_lock:
            self.admission.on_global_reuse(entry)
        return False

    def _admit(self, inv: Invocation, instr: Instr, opdef, sig: Signature,
               args: Tuple, value: Any, elapsed: float) -> None:
        if not isinstance(value, BAT):
            return
        if sig in self.pool:
            return
        key = (inv.program.name, instr.pc)
        nbytes = value.owned_nbytes
        with self._stats_lock:
            admit = self.admission.should_admit(key, nbytes, len(value))
        if not admit:
            return
        if self.config.max_bytes is not None \
                and nbytes > self.config.max_bytes:
            return  # can never fit

        def build() -> RecycleEntry:
            now = inv.clock()
            return RecycleEntry(
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
            )

        if self._limited:
            cfg = self.config
            pool_bytes, pool_len = self.pool.usage()
            fits = ((cfg.max_bytes is None
                     or pool_bytes + nbytes <= cfg.max_bytes)
                    and (cfg.max_entries is None
                         or pool_len + 1 <= cfg.max_entries))
            if fits:
                # Under the limits: shard-local admission — no eviction is
                # needed, so no stop-the-world.  Concurrent admissions may
                # overshoot between the advisory totals read and the add;
                # the recheck below restores the limits.
                if not self.pool.add_if_absent(build()):
                    return
                pool_bytes, pool_len = self.pool.usage()
                if ((cfg.max_bytes is not None
                     and pool_bytes > cfg.max_bytes)
                        or (cfg.max_entries is not None
                            and pool_len > cfg.max_entries)):
                    with self.pool.all_locked():
                        self._ensure_capacity_locked(inv, 0,
                                                     incoming_entries=0)
            else:
                # Eviction observes and mutates the whole pool, so the
                # admission happens stop-the-world.
                with self.pool.all_locked():
                    if sig in self.pool:
                        return
                    self._ensure_capacity_locked(inv, nbytes)
                    if not self.pool._add_locked(build()):
                        return
        else:
            # No limits: shard-local, race-safe admission.
            if not self.pool.add_if_absent(build()):
                return
        with self._stats_lock:
            self.admission.on_admit(key)
        inv.touch(sig)
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

        Locking: the entry's own lock set without resource limits, all
        shards with them (the re-balance sweeps the whole pool).  The
        entry is revalidated under the locks — a concurrent eviction may
        have removed it (miss), a concurrent hit may have promoted it
        (serve the resident value).
        """
        spill_failed = False
        scope = (self.pool.all_locked() if self._limited
                 else self.pool.entry_locked(entry))
        with scope:
            if self.pool.lookup(entry.sig) is not entry:
                return None  # evicted while we waited: treat as a miss
            if not entry.is_spilled:
                value = entry.value  # promoted by a concurrent session
                return value if isinstance(value, BAT) else None
            token = entry.result_token
            try:
                value = self.spill.load(token)
            except SpillError:
                spill_failed = True
            else:
                self.pool.promote(entry, value)
                with self._stats_lock:
                    self.totals.promotions += 1
                inv.touch(entry.sig)
                # Promotion adds bytes but no pool entry: reserve no
                # admission slot, or every promoted hit at the entry
                # limit would evict.
                if self._limited:
                    self._ensure_capacity_locked(inv, 0,
                                                 incoming_entries=0)
                return value
        if spill_failed:
            self._drop_corrupt_spilled(inv, entry)
        return None

    def _drop_corrupt_spilled(self, inv: Invocation,
                              entry: RecycleEntry) -> None:
        """Drop a spilled entry whose disk image failed to load.

        Same cascade rule as eviction's destroy path: a dropped producer
        strands its spilled dependent thread, unless its token is stable
        across re-admission.  Stop-the-world (the cascade crosses shards).
        """
        with self.pool.all_locked():
            if self.pool.lookup(entry.sig) is not entry \
                    or not entry.is_spilled:
                return  # resolved concurrently
            if entry.dependents and not entry.token_is_stable:
                self._drop_dependent_thread(inv, entry)
            self.pool.remove_set([entry])
            with self._stats_lock:
                self.admission.on_evict(entry)
                self.totals.spill_errors += 1

    def _resident_value(self, inv: Invocation, entry: RecycleEntry,
                        promoted: Optional[_Flag] = None) -> Optional[BAT]:
        """The entry's BAT, promoting it first when spilled."""
        if not entry.is_spilled:
            value = entry.value
            if isinstance(value, BAT):
                return value
            # demoted between plan and use — fall through to the promote
            # path, which revalidates under the entry's locks
        value = self._promote_entry(inv, entry)
        if value is not None and promoted is not None:
            promoted.set()
        return value

    def _count_evicted(self, inv: Invocation,
                       victims: Sequence[RecycleEntry]) -> None:
        """Book destroyed entries — with the admission policy and on the
        evicting invocation's own record."""
        with self._stats_lock:
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
        now has room.  Caller holds all shard locks (eviction path).
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
        Caller holds all shard locks.
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
        the store has measured.  Caller holds all shard locks."""
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
        with self._stats_lock:
            if clean:
                self.totals.clean_demotions += 1
            else:
                self.totals.spill_writes += 1
        inv.stats.demotions += 1
        return True

    def _ensure_capacity_locked(self, inv: Invocation, incoming_bytes: int,
                                incoming_entries: int = 1) -> None:
        """Evict/demote until the configured limits hold.

        Caller holds **all** shard locks — eviction observes and mutates
        the whole pool.  Guarantees forward progress: a byte-pressure
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

        # Pool totals are aggregates over all shards; maintain them across
        # rounds with one recomputation per round instead of per probe.
        pool_bytes, pool_len = self.pool.usage()
        if need_bytes(pool_bytes) <= 0 and need_entries(pool_len) <= 0:
            return
        # Protect every in-flight invocation's touched entries, not just
        # ours — another session may be mid-plan over a pooled value.
        protected: Set[Signature] = inv.touched_snapshot()
        with self._active_lock:
            active = list(self._active.values())
        for other in active:
            if other is not inv:
                protected |= other.touched_snapshot()
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
            if byte_mode and self.spill is not None and not stalled:
                # Two-tier byte pressure draws from the demotable set —
                # resident entries with no *resident* dependents — so a
                # parent can follow its spilled children to disk and the
                # whole thread stays matchable.  (Spilled leaves hold no
                # memory-tier bytes; destroying them would not help.)
                leaves = self.pool._demotable_locked(protected)
            else:
                leaves = self.pool._leaves_locked(protected)
            if not leaves:
                if not dropped_protection:
                    # §4.3 exception: a single query filling the whole pool
                    # may evict its own intermediates.
                    dropped_protection = True
                    protected = set()
                    continue
                break
            if byte_mode and stalled:
                # No-progress fallback (see below): byte-oriented victim
                # selection found only zero-byte views, so switch to
                # entry-count eviction — destroying leaves exposes the
                # byte-carrying parents underneath.
                victims = self.eviction.pick(leaves, 0, 1, inv.clock())
            else:
                victims = self.eviction.pick(leaves, nb, ne, inv.clock())
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
                    self.pool._remove_locked(victim)
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
    def _try_subsume(self, inv: Invocation, opname: str, args: Tuple
                     ) -> Tuple[Optional[SubsumptionOutcome], bool]:
        """Subsumption search + materialisation.

        The *search* (candidate scan, cover selection) runs under the
        operand token's shard lock — candidates, their signatures and the
        subsumption bucket are all homed there.  The *materialisation*
        (running the narrowing operator over pooled values) runs outside
        any shard lock: pooled BATs are immutable, the used entries are
        in the invocation's touched set (protected from eviction), and a
        concurrently demoted/evicted piece is detected by
        :meth:`_resident_value`, falling back to genuine execution.

        Returns ``(outcome, promoted_any)``.
        """
        operand: BAT = args[0]
        t0 = inv.clock()
        promoted = _Flag()
        outcome: Optional[SubsumptionOutcome] = None
        if opname == "algebra.select":
            target = Range(args[1], args[2], bool(args[3]), bool(args[4]))
            outcome = self._subsume_range(inv, operand, target, opname,
                                          promoted=promoted)
        elif opname == "algebra.uselect":
            target = Range.point(args[1])
            outcome = self._subsume_range(inv, operand, target,
                                          "algebra.uselect",
                                          point_value=args[1],
                                          promoted=promoted)
        elif opname == "algebra.inselect":
            values = list(args[1])
            if values:
                target = Range(min(values), max(values), True, True)
                outcome = self._subsume_range(inv, operand, target,
                                              "algebra.inselect",
                                              in_values=tuple(args[1]),
                                              promoted=promoted)
        elif opname == "algebra.likeselect":
            outcome = self._subsume_like(inv, operand, args[1], promoted)
        elif opname == "algebra.semijoin":
            outcome = self._subsume_semijoin(inv, operand, args[1],
                                             promoted)
        algo_time = inv.clock() - t0
        with self._stats_lock:
            self.totals.subsumption_algo_time += algo_time
            self.totals.subsumption_algo_calls += 1
        if outcome is not None:
            outcome.algo_seconds = algo_time
        return outcome, promoted.value

    def _range_candidates(self, operand: BAT):
        out = []
        for entry in self.pool.candidates("algebra.select", operand.token):
            rng = select_entry_range(entry)
            if rng is not None:
                out.append((rng, entry))
        return out

    def _subsume_range(self, inv: Invocation, operand: BAT, target: Range,
                       opname: str, point_value=None,
                       in_values: Optional[Tuple] = None,
                       promoted: Optional[_Flag] = None
                       ) -> Optional[SubsumptionOutcome]:
        from repro.mal.operators.selection import (
            algebra_inselect,
            algebra_select,
            algebra_uselect,
        )

        # --- search phase: shard-local (operand token home) ---
        single: Optional[RecycleEntry] = None
        segments = None
        with self.pool.token_locked(operand.token):
            candidates = self._range_candidates(operand)
            singles = [
                (rng, e) for rng, e in candidates if covers(rng, target)
            ]
            if singles:
                # Cost model: smallest intermediate wins (§5.1).
                _rng, single = min(singles, key=lambda it: it[1].tuples)
            elif (self.config.combined_subsumption
                    and opname == "algebra.select"):
                search_start = inv.clock()
                chosen = find_combined_cover(
                    target,
                    candidates,
                    base_cost=float(len(operand)),
                    overhead=self.config.overhead_tuples,
                )
                search_time = inv.clock() - search_start
                with self._stats_lock:
                    self.totals.combined_search_time += search_time
                    self.totals.combined_search_calls += 1
                if chosen is not None and len(chosen) >= 2:
                    segments = split_target_into_segments(target, chosen)

        # --- materialise phase: no shard locks held ---
        if single is not None:
            inv.touch(single.sig)
            source = self._resident_value(inv, single, promoted)
            if source is None:
                return None  # corrupt spill entry dropped; execute normally
            if point_value is not None:
                result = algebra_uselect(None, source, point_value)
            elif in_values is not None:
                result = algebra_inselect(None, source, in_values)
            else:
                result = algebra_select(None, source, target.lo, target.hi,
                                        target.lo_incl, target.hi_incl)
            result = self._rebase(result, operand)
            return SubsumptionOutcome(result, [single], "select")

        if not segments:
            return None
        # Protect every chosen piece before the first promotion — a
        # promotion re-balances capacity and must not demote or destroy a
        # sibling piece we are about to read.
        for _seg, entry in segments:
            inv.touch(entry.sig)
        heads: List[np.ndarray] = []
        tails: List[np.ndarray] = []
        used: List[RecycleEntry] = []
        for seg, entry in segments:
            source = self._resident_value(inv, entry, promoted)
            if source is None:
                return None  # corrupt piece; fall back to execution
            piece = algebra_select(None, source, seg.lo, seg.hi,
                                   seg.lo_incl, seg.hi_incl)
            heads.append(piece.head_values())
            tails.append(piece.tail_values())
            used.append(entry)
        result = BAT.materialized(
            np.concatenate(heads) if heads else np.empty(0, np.int64),
            np.concatenate(tails) if tails else np.empty(0),
            sources=operand.sources,
            subset_parent=operand,
        )
        return SubsumptionOutcome(result, used, "combined")

    def _subsume_like(self, inv: Invocation, operand: BAT,
                      pattern: str, promoted: Optional[_Flag] = None
                      ) -> Optional[SubsumptionOutcome]:
        from repro.mal.operators.selection import algebra_likeselect

        with self.pool.token_locked(operand.token):
            matches = []
            for entry in self.pool.candidates("algebra.likeselect",
                                              operand.token):
                try:
                    cached_pattern = entry.sig[2][1]
                except (IndexError, TypeError):
                    continue
                if like_subsumes(cached_pattern, pattern):
                    matches.append(entry)
        for entry in matches:
            inv.touch(entry.sig)
            source = self._resident_value(inv, entry, promoted)
            if source is None:
                continue  # corrupt spill entry dropped; try the next
            result = algebra_likeselect(None, source, pattern)
            result = self._rebase(result, operand)
            return SubsumptionOutcome(result, [entry], "like")
        return None

    def _subsume_semijoin(self, inv: Invocation, operand: BAT,
                          filt: BAT, promoted: Optional[_Flag] = None
                          ) -> Optional[SubsumptionOutcome]:
        from repro.mal.operators.joins import algebra_semijoin

        best = None
        with self.pool.token_locked(operand.token):
            for entry in self.pool.candidates("algebra.semijoin",
                                              operand.token):
                try:
                    v_id = entry.sig[2]
                except IndexError:
                    continue
                if v_id[0] != "b":
                    continue
                if filt.row_subset_of(v_id[1]):
                    if best is None or entry.tuples < best.tuples:
                        best = entry
        if best is None:
            return None
        inv.touch(best.sig)
        source = self._resident_value(inv, best, promoted)
        if source is None:
            return None  # corrupt spill entry dropped; execute normally
        result = algebra_semijoin(None, source, filt)
        result = self._rebase(result, operand)
        return SubsumptionOutcome(result, [best], "semijoin")

    @staticmethod
    def _rebase(result: BAT, operand: BAT) -> BAT:
        """Re-anchor subset lineage at the original operand.

        A subsumed execution computes over a pooled intermediate, but the
        logical operand is the original BAT; downstream subsumption checks
        must see the result as a subset of *that*.  (The chain through the
        pooled intermediate already contains the operand, so this is just
        a normalisation of ``subset_of``.)
        """
        result.subset_of = operand.token
        if operand.token not in result.subset_chain:
            result.subset_chain = result.subset_chain + (operand.token,)
        return result

    # ------------------------------------------------------------------
    # Update synchronisation (paper §6) — stop-the-world paths
    # ------------------------------------------------------------------
    def on_update(self, table: str, columns: Sequence[str],
                  catalog=None, delta=None) -> int:
        """Synchronise the pool after a committed update.

        Default mode (the paper's §6.4): immediate column-wise
        invalidation.  With ``propagate_selects`` enabled and an
        append-only delta available, eligible select intermediates are
        refreshed in place instead (§6.3).  Takes all shard locks — the
        caller already holds the table's write lock, so no new derivation
        from this table can race the sweep (see
        :mod:`repro.server.locks`).
        """
        with self.pool.all_locked():
            propagated = 0
            if (self.config.propagate_selects and catalog is not None
                    and delta is not None and delta.append_only):
                from repro.core.propagation import propagate_append

                propagated = propagate_append(self, catalog, delta)
                with self._stats_lock:
                    self.totals.propagated += propagated
            stale_columns = {(table, c) for c in columns}
            current_versions = None
            if catalog is not None and catalog.has_table(table):
                tab = catalog.table(table)
                current_versions = {
                    (table, c, tab.versions[c]) for c in columns
                }
            stale = self.pool.stale_entries(stale_columns, current_versions)
            removed = self.pool.remove_set(stale)
            with self._stats_lock:
                for entry in stale:
                    self.admission.on_evict(entry)
                self.totals.invalidations += removed
            return removed

    def on_drop_table(self, table: str) -> int:
        """Drop every entry derived from *table* (§6.3 DDL handling).

        Dependent intermediates must go at once: dependents of a stale
        entry inherit its sources, so the stale set is dependency-closed.
        Stop-the-world (caller holds the database DDL lock).
        """
        with self.pool.all_locked():
            table_cols = {
                (table, c)
                for e in self.pool.entries()
                for (t, c, _v) in getattr(e.value, "sources", frozenset())
                if t == table
            }
            stale = self.pool.stale_entries(table_cols)
            removed = self.pool.remove_set(stale)
            with self._stats_lock:
                for entry in stale:
                    self.admission.on_evict(entry)
                self.totals.invalidations += removed
            return removed

    def recycle_reset(self) -> int:
        """Drop the whole pool (the paper's ``RecycleReset``)."""
        with self.pool.all_locked():
            removed = self.pool.clear()
            with self._stats_lock:
                for entry in removed:
                    self.admission.on_evict(entry)
                self.totals.invalidations += len(removed)
            return len(removed)

    def close(self) -> None:
        """Empty the pool and tear down the spill store's run directory.

        Called by :meth:`repro.db.Database.close`; idempotent, and the
        pool invariants hold trivially afterwards (both tiers empty).
        """
        with self.pool.all_locked():
            self.recycle_reset()
            if self.spill is not None:
                self.spill.close()

    def check_invariants(self) -> None:
        """Verify pool accounting from scratch (tests/debug;
        stop-the-world across all shards)."""
        self.pool.check_invariants()

    # ------------------------------------------------------------------
    @property
    def memory_used(self) -> int:
        """Memory-tier bytes (resident entries only)."""
        return self.pool.total_bytes

    @property
    def spilled_bytes(self) -> int:
        """Disk-tier bytes (logical size of spilled entries)."""
        return self.pool.spilled_bytes

    @property
    def entry_count(self) -> int:
        return len(self.pool)

    @property
    def spilled_entry_count(self) -> int:
        return self.pool.spilled_count
