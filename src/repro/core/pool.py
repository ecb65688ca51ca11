"""The recycle pool: a sharded cache of intermediates with lineage.

Entries are keyed by *instruction signature* — operator name plus resolved
argument identities (scalar constants by value, BAT arguments by lineage
token).  Because a pool hit returns the pooled BAT itself, a re-submitted
template resolves downstream signatures to pooled tokens exactly when its
whole instruction prefix matched: the bottom-up sequence matching of design
alternative 1 (§3.4), with lineage preserved as §4.1 requires.

The pool also maintains the dependency graph between entries (who consumes
whose result), which the eviction policies need: only *leaf* entries — no
dependents in the pool — may be evicted (§4.3).

The pool is **two-tiered**: every entry is either ``RESIDENT`` (its BAT
in memory, counted in ``total_bytes``) or ``SPILLED`` (only its image in
the attached :class:`~repro.storage.spill.SpillStore`, a
:class:`~repro.storage.spill.SpilledStub` in its place, counted in
``spilled_bytes``).  Demotion and promotion move an entry between tiers
without touching the signature index, the dependency graph or the
subsumption buckets — a spilled entry still matches, still invalidates on
updates, and still anchors its dependents.  An image is written once and
lives as long as its entry: promotion keeps it (pooled BATs are
immutable, so re-demoting is a stub swap), and it goes when the entry
leaves the pool or the disk quota needs the room (``drop_image``).

Sharding
--------
The pool is split into ``n_shards`` independent shards, each guarded by
its own re-entrant lock, so concurrent sessions doing exact lookups,
admissions, and promotions on unrelated lineage no longer serialise on
one global mutex.  Every shard plays two roles:

* **Signature role** — the signature index (``by_sig``), the subsumption
  buckets (``by_op_arg``), and the per-tier byte books for signatures
  whose *home* is this shard.  A signature's home is its first BAT
  argument's token modulo ``n_shards`` (falling back to ``hash(sig)`` for
  constant-only signatures), which colocates an entry with the
  subsumption bucket it lives in — the §5 candidate search is a
  single-shard operation.
* **Token role** — the token index (``by_token``) and the consumer index
  (``consumers``) for result tokens congruent to this shard's index, plus
  the leaf/demotable membership of the entries producing those tokens.

Both homes are *pure functions* of immutable entry fields (signature,
result token, argument tokens), so the full lock set of any mutation —
``{home(sig)} ∪ {home(result_token)} ∪ {home(t) for t in arg_tokens}``
— is computable up front and acquired in ascending shard order.  There is
no lock discovery, no retry, and with ``n_shards == 1`` the scheme
degenerates to the previous single-lock pool.

Cross-shard operations — eviction sweeps (``leaves`` / ``demotable``),
invalidation scans (``stale_entries``), ``check_invariants``, ``clear``
— take *all* shard locks in index order (a brief stop-the-world; see
``docs/ARCHITECTURE.md``).  Aggregated candidate lists are ordered by a
global admission sequence number so eviction tie-breaking is identical
for every shard count.

Mutating entry *statistics* (reuse counters, ``last_used``) is guarded by
the entry's signature-home shard lock; the immutable identity fields may
be read without any lock.
"""

from __future__ import annotations

import itertools
import operator
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import RecyclerError
from repro.storage.bat import BAT
from repro.storage.spill import SpillStore, SpilledStub

Signature = Tuple  # (opname, arg_id, arg_id, ...)

#: Entry tier states.
RESIDENT = "resident"
SPILLED = "spilled"

#: Global admission sequence — preserves pool-wide insertion order across
#: shards so aggregated eviction-candidate lists are deterministic.
_SEQ = itertools.count(1)

#: Sort key for deterministic global admission order (entry.seq).
_BY_SEQ = operator.attrgetter("seq")


def arg_identity(value: Any) -> Tuple:
    """The matching identity of one resolved argument (run-time value).

    BATs are identified by lineage token; everything else by value.  A
    tuple tags the namespace so an integer constant can never collide with
    a token.
    """
    if isinstance(value, BAT):
        return ("b", value.token)
    return ("c", value)


def make_signature(opname: str, args: Iterable[Any]) -> Signature:
    """Instruction signature from resolved argument values."""
    return (opname,) + tuple(arg_identity(a) for a in args)


@dataclass(eq=False)
class RecycleEntry:
    """One pooled intermediate with its execution and reuse statistics.

    Entries compare and hash by identity, so the pool can keep them in
    sets (the consumer index).
    """

    sig: Signature
    opname: str
    kind: str
    value: Any
    cost: float                      # CPU seconds to compute (§4.3 Cost)
    nbytes: int                      # bytes owned by the result
    tuples: int                      # result cardinality
    template_key: Tuple[str, int]    # (template name, pc) — credit identity
    invocation_id: int               # admitting invocation (local-reuse test)
    admitted_at: float
    last_used: float
    arg_tokens: Tuple[int, ...] = ()
    reuse_count: int = 0             # total reuses (paper's k - 1)
    local_reuses: int = 0
    global_reuses: int = 0
    subsumed_reuses: int = 0
    promotions: int = 0              # disk-to-memory moves of this entry
    saved_time: float = 0.0
    dependents: int = 0              # pool entries consuming our result
    spilled_dependents: int = 0      # ... of which currently on disk
    state: str = RESIDENT            # RESIDENT (memory) or SPILLED (disk)
    seq: int = 0                     # pool-wide admission order
    # Shard-routing caches, set by the pool at admission time — pure
    # functions of the identity fields, recomputed when a re-keyed entry
    # is re-admitted (§6.3 refresh).  ``check_invariants`` verifies them.
    home_idx: int = field(default=0, repr=False)
    leaf_idx: int = field(default=0, repr=False)
    rtoken: Optional[int] = field(default=None, repr=False)
    first_tok: Optional[int] = field(default=None, repr=False)

    @property
    def result_token(self) -> Optional[int]:
        return getattr(self.value, "token", None)

    @property
    def is_spilled(self) -> bool:
        return self.state == SPILLED

    @property
    def resident_dependents(self) -> int:
        """Dependents whose values are in memory.

        A resident entry with ``resident_dependents == 0`` may be demoted
        even when it is not a leaf: its spilled dependents reference it by
        token, which survives the round trip — the whole execution thread
        moves to disk and stays matchable (§4.1's rationale, extended to
        the two-tier pool).
        """
        return self.dependents - self.spilled_dependents

    @property
    def references(self) -> int:
        """The paper's k: total references = computation + reuses."""
        return 1 + self.reuse_count

    @property
    def has_global_reuse(self) -> bool:
        return self.global_reuses > 0

    @property
    def is_leaf(self) -> bool:
        return self.dependents == 0

    @property
    def token_is_stable(self) -> bool:
        """Does this entry's result token survive eviction?

        Persistent binds and join indices come from the catalogue's bind
        caches: re-executing them returns the *same* BAT (same token)
        until an update bumps the column version, so their dependents
        remain matchable after the producer entry is destroyed — the
        ``consumers`` contract of :class:`_Shard`.
        """
        return getattr(self.value, "persistent_name", None) is not None


class _Shard:
    """One pool shard: a lock plus the books homed here (both roles)."""

    __slots__ = (
        "lock", "by_sig", "by_op_arg", "total_bytes", "spilled_bytes",
        "by_token", "consumers", "leaf_sigs", "demotable_sigs",
    )

    def __init__(self):
        self.lock = threading.RLock()
        # --- signature role (home_sig(sig) == this shard) ---
        self.by_sig: Dict[Signature, RecycleEntry] = {}
        self.by_op_arg: Dict[Tuple[str, int], List[RecycleEntry]] = {}
        self.total_bytes = 0
        self.spilled_bytes = 0
        # --- token role (token % n_shards == this shard) ---
        self.by_token: Dict[int, RecycleEntry] = {}
        # arg-token -> the pool entries consuming it (a producer's
        # ``dependents`` is the size of its token's set).  Kept even for
        # tokens whose producer is not (or no longer) pooled: a persistent
        # bind result has a stable token, so its entry can be evicted and
        # re-admitted *after* consumers of that token — the re-admitted
        # entry must start with the surviving consumers, not none.
        self.consumers: Dict[int, Set[RecycleEntry]] = {}
        # Leaf/demotable membership of entries whose *result token* is
        # homed here (signature home for tokenless entries) — guarded by
        # this shard's lock together with those entries' dependent counts.
        self.leaf_sigs: Dict[Signature, RecycleEntry] = {}
        self.demotable_sigs: Dict[Signature, RecycleEntry] = {}


class _LockScope:
    """Reusable multi-shard lock scope: ascending acquire, reverse
    release.  All member locks are re-entrant, so nesting scopes that
    share shards (including under :meth:`RecyclePool.all_locked`) is
    safe as long as the outermost acquisition respects index order."""

    __slots__ = ("_locks",)

    def __init__(self, locks):
        self._locks = locks

    def __enter__(self):
        for lk in self._locks:
            lk.acquire()

    def __exit__(self, exc_type, exc, tb):
        for lk in reversed(self._locks):
            lk.release()
        return False


class RecyclePool:
    """Sharded signature-keyed store of :class:`RecycleEntry`.

    See the module docstring for the sharding and locking contract.  The
    single-entry mutators (``add`` / ``remove`` / ``demote`` / ``promote``)
    acquire their own entry lock sets and are safe to call concurrently;
    the aggregate views take all shard locks.  All locks are re-entrant,
    so callers already holding :meth:`all_locked` can use every method.
    """

    def __init__(self, n_shards: int = 1):
        if n_shards < 1:
            raise RecyclerError("pool needs at least one shard")
        self.n_shards = n_shards
        self._shards = [_Shard() for _ in range(n_shards)]
        self._all_scope = _LockScope([s.lock for s in self._shards])
        #: The disk tier, attached by the recycler when spilling is
        #: configured; None keeps the classic single-tier behaviour.
        #: The store is shared by all shards (it has its own lock).
        self.spill: Optional[SpillStore] = None
        #: token -> resident entry whose spill image is still on disk
        #: (promoted, not yet re-demoted): the images the disk quota may
        #: reclaim for free.  Written under the entry's shard locks, read
        #: under all of them.
        self.resident_images: Dict[int, RecycleEntry] = {}

    # ------------------------------------------------------------------
    # Shard homes (pure functions of immutable identity) and lock scopes
    # ------------------------------------------------------------------
    def _sig_home(self, sig: Signature) -> int:
        first = self._first_bat_token(sig)
        if first is not None:
            return first % self.n_shards
        return hash(sig) % self.n_shards

    def _token_home(self, token: int) -> int:
        return token % self.n_shards

    def _leaf_shard(self, entry: RecycleEntry) -> _Shard:
        return self._shards[entry.leaf_idx]

    def _entry_lock_set(self, entry: RecycleEntry) -> List[int]:
        n = self.n_shards
        indices = {entry.home_idx, entry.leaf_idx}
        for t in entry.arg_tokens:
            indices.add(t % n)
        return sorted(indices)

    def _entry_scope(self, entry: RecycleEntry):
        """Lock scope of the entry's mutation footprint.  The bare shard
        RLock is returned directly when the footprint is a single shard —
        the admit/evict churn under a tight limit runs through here, so
        the common case skips the sort and the scope allocation."""
        n = self.n_shards
        indices = {entry.home_idx, entry.leaf_idx}
        for t in entry.arg_tokens:
            indices.add(t % n)
        if len(indices) == 1:
            return self._shards[indices.pop()].lock
        return _LockScope([self._shards[i].lock for i in sorted(indices)])

    def _locked(self, indices: Iterable[int]) -> "_LockScope":
        return _LockScope([
            self._shards[i].lock for i in sorted(set(indices))
        ])

    def sig_locked(self, sig: Signature):
        """Lock scope of one signature's home shard (exact lookup,
        subsumption search, entry-statistics updates)."""
        return self._shards[self._sig_home(sig)].lock

    def token_locked(self, token: int):
        """Lock scope of one token's home shard."""
        return self._shards[self._token_home(token)].lock

    def entry_locked(self, entry: RecycleEntry):
        """Full ordered lock set of one entry's mutation footprint."""
        return self._entry_scope(entry)

    def all_locked(self) -> "_LockScope":
        """Every shard lock, in index order — the stop-the-world scope
        for eviction sweeps, invalidation, reset, and invariant checks."""
        return self._all_scope

    # ------------------------------------------------------------------
    # Aggregate accounting (sums over shards; exact under any lock that
    # excludes concurrent mutation, advisory otherwise)
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Memory-tier bytes: owned bytes of RESIDENT entries only."""
        n = 0
        for s in self._shards:
            n += s.total_bytes
        return n

    @property
    def spilled_bytes(self) -> int:
        """Disk-tier bytes: owned bytes of SPILLED entries (logical BAT
        size; the store tracks actual file sizes for its quota)."""
        n = 0
        for s in self._shards:
            n += s.spilled_bytes
        return n

    def __len__(self) -> int:
        n = 0
        for s in self._shards:
            n += len(s.by_sig)
        return n

    def usage(self) -> Tuple[int, int]:
        """``(total_bytes, len(pool))`` in one pass over the shards —
        the admission fits-check reads both on every recycleExit."""
        b = n = 0
        for s in self._shards:
            b += s.total_bytes
            n += len(s.by_sig)
        return b, n

    def __contains__(self, sig: Signature) -> bool:
        return sig in self._shards[self._sig_home(sig)].by_sig

    def entries(self) -> List[RecycleEntry]:
        with self.all_locked():
            out = [e for s in self._shards for e in s.by_sig.values()]
        out.sort(key=_BY_SEQ)
        return out

    def lookup(self, sig: Signature) -> Optional[RecycleEntry]:
        shard = self._shards[self._sig_home(sig)]
        with shard.lock:
            return shard.by_sig.get(sig)

    def entry_for_token(self, token: int) -> Optional[RecycleEntry]:
        shard = self._shards[self._token_home(token)]
        with shard.lock:
            return shard.by_token.get(token)

    def candidates(self, opname: str, first_token: int) -> List[RecycleEntry]:
        """Entries of *opname* whose first BAT argument is *first_token* —
        the subsumption search space (§5).  Shard-local: the bucket lives
        in the first token's shard, which is also every member's
        signature home."""
        shard = self._shards[self._token_home(first_token)]
        with shard.lock:
            return list(shard.by_op_arg.get((opname, first_token), ()))

    # ------------------------------------------------------------------
    def add(self, entry: RecycleEntry) -> None:
        if not self._add(entry, if_absent=False):
            raise RecyclerError(f"duplicate pool entry for {entry.sig[0]}")

    def add_if_absent(self, entry: RecycleEntry) -> bool:
        """Race-safe admission: add *entry* unless its signature is
        already pooled.  Returns True when the entry went in."""
        return self._add(entry, if_absent=True)

    def _add(self, entry: RecycleEntry, if_absent: bool) -> bool:
        self._route(entry)
        with self._entry_scope(entry):
            return self._add_routed(entry, if_absent)

    def _add_locked(self, entry: RecycleEntry) -> bool:
        """:meth:`add_if_absent` for callers already holding all shard
        locks (the recycler's limited-admission path)."""
        self._route(entry)
        return self._add_routed(entry, if_absent=True)

    def _route(self, entry: RecycleEntry) -> None:
        """Compute and cache the entry's shard routing — pure functions
        of the identity fields; every later book operation reuses it."""
        if entry.is_spilled:
            raise RecyclerError("entries are admitted resident, not spilled")
        n = self.n_shards
        first = self._first_bat_token(entry.sig)
        entry.home_idx = home_idx = (
            first if first is not None else hash(entry.sig)
        ) % n
        token = getattr(entry.value, "token", None)
        entry.leaf_idx = home_idx if token is None else token % n
        entry.rtoken = token
        entry.first_tok = first
        operands = entry.arg_tokens
        if len(operands) > 1 and len(set(operands)) != len(operands):
            # One dependency per distinct operand, however often passed.
            entry.arg_tokens = tuple(dict.fromkeys(operands))

    def _add_routed(self, entry: RecycleEntry, if_absent: bool) -> bool:
        n = self.n_shards
        token = entry.rtoken
        first = entry.first_tok
        home = self._shards[entry.home_idx]
        if entry.sig in home.by_sig:
            if if_absent:
                return False
            raise RecyclerError(
                f"duplicate pool entry for {entry.sig[0]}"
            )
        entry.seq = next(_SEQ)
        home.by_sig[entry.sig] = entry
        if token is not None:
            tshard = self._shards[entry.leaf_idx]
            tshard.by_token[token] = entry
            # Consumers admitted while our token had no pooled producer
            # (possible for stable persistent-bind tokens) count from
            # the start — otherwise their later removal drives us
            # negative.
            waiting = tshard.consumers.get(token)
            if waiting:
                entry.dependents = len(waiting)
                entry.spilled_dependents = sum(
                    c.is_spilled for c in waiting)
            else:
                entry.dependents = entry.spilled_dependents = 0
        if first is not None:
            home.by_op_arg.setdefault(
                (entry.opname, first), []).append(entry)
        for t in entry.arg_tokens:
            ts = self._shards[t % n]
            consumers = ts.consumers.get(t)
            if consumers is None:
                ts.consumers[t] = {entry}
            else:
                consumers.add(entry)
            parent = ts.by_token.get(t)
            if parent is not None:
                parent.dependents += 1
                ts.leaf_sigs.pop(parent.sig, None)
                self._update_demotable(parent)
        if entry.dependents == 0:
            self._shards[entry.leaf_idx].leaf_sigs[entry.sig] = entry
        self._update_demotable(entry)
        home.total_bytes += entry.nbytes
        return True

    def remove(self, entry: RecycleEntry) -> None:
        with self._entry_scope(entry):
            self._remove_locked(entry)

    def _remove_locked(self, entry: RecycleEntry) -> None:
        """:meth:`remove` for callers already holding the entry's lock
        set (the recycler's eviction sweep holds *all* shard locks)."""
        if entry.sig not in self._shards[entry.home_idx].by_sig:
            return
        if entry.dependents:
            raise RecyclerError(
                f"evicting non-leaf entry {entry.opname} "
                f"({entry.dependents} dependents)"
            )
        self._discard(entry)

    def remove_set(self, doomed: Iterable[RecycleEntry]) -> int:
        """Remove a set of entries regardless of internal dependencies.

        Used by invalidation (§6.4): dependents of a stale entry are
        themselves stale (sources propagate through operators), so the set
        is closed under dependency and can be dropped wholesale.
        """
        doomed = list(doomed)
        indices: Set[int] = set()
        for e in doomed:
            indices.update(self._entry_lock_set(e))
        with self._locked(indices):
            doomed = [
                e for e in doomed
                if e.sig in self._shards[e.home_idx].by_sig
            ]
            doomed_tokens = {e.rtoken for e in doomed}
            removed = 0
            for e in doomed:
                self._discard(e, skip_parent_tokens=doomed_tokens)
                removed += 1
            return removed

    def _present(self, entry: RecycleEntry) -> bool:
        """Membership test valid under the entry's leaf-shard lock."""
        token = entry.rtoken
        if token is not None:
            return self._shards[entry.leaf_idx] \
                .by_token.get(token) is entry
        return self._shards[entry.home_idx] \
            .by_sig.get(entry.sig) is entry

    def _update_demotable(self, entry: RecycleEntry) -> None:
        """Re-derive one entry's membership in the demotable set."""
        shard = self._shards[entry.leaf_idx]
        if (entry.state == RESIDENT
                and entry.dependents == entry.spilled_dependents
                and self._present(entry)):
            shard.demotable_sigs[entry.sig] = entry
        else:
            shard.demotable_sigs.pop(entry.sig, None)

    def _discard(self, entry: RecycleEntry,
                 skip_parent_tokens: Optional[Set[int]] = None) -> None:
        home = self._shards[entry.home_idx]
        del home.by_sig[entry.sig]
        leaf_shard = self._shards[entry.leaf_idx]
        leaf_shard.leaf_sigs.pop(entry.sig, None)
        leaf_shard.demotable_sigs.pop(entry.sig, None)
        token = entry.rtoken
        if token is not None:
            self._shards[entry.leaf_idx].by_token.pop(token, None)
        first = entry.first_tok
        if first is not None:
            bucket = home.by_op_arg.get((entry.opname, first))
            if bucket is not None:
                try:
                    bucket.remove(entry)
                except ValueError:
                    pass
                if not bucket:
                    del home.by_op_arg[(entry.opname, first)]
        spilled = entry.is_spilled
        for t in entry.arg_tokens:
            ts = self._shards[self._token_home(t)]
            consumers = ts.consumers[t]
            consumers.discard(entry)
            if not consumers:
                del ts.consumers[t]
            if skip_parent_tokens and t in skip_parent_tokens:
                continue
            parent = ts.by_token.get(t)
            if parent is not None:
                parent.dependents -= 1
                if spilled:
                    parent.spilled_dependents -= 1
                if parent.dependents == 0:
                    ts.leaf_sigs[parent.sig] = parent
                self._update_demotable(parent)
        if spilled:
            home.spilled_bytes -= entry.nbytes
        else:
            home.total_bytes -= entry.nbytes
        if self.spill is not None and token is not None:
            # Leaving the pool is also leaving the disk, whichever tier
            # the entry is in: an image lives exactly as long as its
            # entry (this is what makes invalidation delete files).
            self.drop_image(entry)

    # ------------------------------------------------------------------
    # Tier moves (the recycler handles the actual disk I/O)
    # ------------------------------------------------------------------
    def demote(self, entry: RecycleEntry) -> None:
        """Move *entry* to the disk tier after its BAT has been spilled.

        The entry's image must be in the spill store — just written by
        the caller (the recycler's eviction path), or kept from an earlier
        demotion; here the in-memory value is swapped for the image's
        :class:`SpilledStub` and the bytes move between the tier counters.
        The signature/token/subsumption indexes are keyed by data that
        survives demotion; only the tier-dependent books (the parents'
        spilled-dependent counts and demotability) move.
        """
        with self._entry_scope(entry):
            home = self._shards[self._sig_home(entry.sig)]
            if entry.sig not in home.by_sig or entry.is_spilled:
                raise RecyclerError(f"cannot demote {entry.opname}")
            stub = None if self.spill is None \
                else self.spill.image(entry.rtoken)
            if stub is None:
                raise RecyclerError(
                    f"demoting {entry.opname} without a spill image"
                )
            entry.value = stub
            entry.state = SPILLED
            self.resident_images.pop(entry.rtoken, None)
            self._leaf_shard(entry).demotable_sigs.pop(entry.sig, None)
            for t in entry.arg_tokens:
                ts = self._shards[self._token_home(t)]
                parent = ts.by_token.get(t)
                if parent is not None:
                    parent.spilled_dependents += 1
                    self._update_demotable(parent)
            home.total_bytes -= entry.nbytes
            home.spilled_bytes += entry.nbytes

    def promote(self, entry: RecycleEntry, value: BAT) -> None:
        """Bring a spilled *entry* back to memory with the reloaded BAT.

        *value* must carry the original token (``SpillStore.load``
        guarantees it), so the token index keeps pointing at the same
        lineage.  The image stays in the store: the BAT is immutable, so
        a later re-demotion is a stub swap with no I/O.  It is dropped
        when the entry leaves the pool, or by :meth:`drop_image` when the
        disk quota needs the room.
        """
        with self._entry_scope(entry):
            home = self._shards[self._sig_home(entry.sig)]
            if entry.sig not in home.by_sig or not entry.is_spilled:
                raise RecyclerError(f"cannot promote {entry.opname}")
            token = entry.result_token
            if value.token != token:
                raise RecyclerError(
                    f"promotion token mismatch: entry {token}, "
                    f"BAT {value.token}"
                )
            entry.value = value
            entry.state = RESIDENT
            entry.promotions += 1
            self.resident_images[token] = entry
            for t in entry.arg_tokens:
                ts = self._shards[self._token_home(t)]
                parent = ts.by_token.get(t)
                if parent is not None:
                    parent.spilled_dependents -= 1
                    self._update_demotable(parent)
            self._update_demotable(entry)
            home.spilled_bytes -= entry.nbytes
            home.total_bytes += entry.nbytes

    def drop_image(self, entry: RecycleEntry) -> None:
        """Delete *entry*'s spill image, if it has one.  Free for a
        resident entry (it merely loses its zero-I/O re-demotion); for a
        spilled one the caller is removing the entry."""
        self.resident_images.pop(entry.rtoken, None)
        self.spill.delete(entry.rtoken)

    @property
    def spilled_count(self) -> int:
        """Number of spilled entries: every image belongs to a pooled
        entry, and the resident ones are indexed."""
        if self.spill is None:
            return 0
        return len(self.spill) - len(self.resident_images)

    def dependent_thread(self, entry: RecycleEntry) -> List[RecycleEntry]:
        """The transitive pool dependents of *entry*, found by walking the
        consumer index — cost proportional to the thread, not the pool.
        Caller holds all shard locks."""
        thread: Dict[RecycleEntry, None] = {}
        tokens = [entry.rtoken]
        while tokens:
            token = tokens.pop()
            if token is None:
                continue
            for c in self._shards[self._token_home(token)] \
                    .consumers.get(token, ()):
                if c not in thread and c is not entry:
                    thread[c] = None
                    tokens.append(c.rtoken)
        return sorted(thread, key=_BY_SEQ)

    def spilled_entries(self) -> List[RecycleEntry]:
        with self.all_locked():
            out = [
                e for s in self._shards
                for e in s.by_sig.values() if e.is_spilled
            ]
        out.sort(key=_BY_SEQ)
        return out

    def spilled_leaves(self) -> List[RecycleEntry]:
        """Spilled entries with no dependents — disk-tier quota victims."""
        with self.all_locked():
            out = [
                e for s in self._shards
                for e in s.leaf_sigs.values() if e.is_spilled
            ]
        out.sort(key=_BY_SEQ)
        return out

    @staticmethod
    def _first_bat_token(sig: Signature) -> Optional[int]:
        for part in sig[1:]:
            if part[0] == "b":
                return part[1]
        return None

    # ------------------------------------------------------------------
    def leaves(self, protected: Optional[Set[Signature]] = None
               ) -> List[RecycleEntry]:
        """Eviction candidates: entries with no dependents, minus protected.

        Aggregated over all shards under :meth:`all_locked`, in global
        admission order."""
        with self.all_locked():
            return self._leaves_locked(protected)

    def _leaves_locked(self, protected: Optional[Set[Signature]] = None
                       ) -> List[RecycleEntry]:
        """:meth:`leaves` for callers already holding all shard locks
        (the recycler's eviction sweep)."""
        if protected:
            out = [
                e for s in self._shards
                for e in s.leaf_sigs.values()
                if e.sig not in protected
            ]
        else:
            out = [
                e for s in self._shards
                for e in s.leaf_sigs.values()
            ]
        out.sort(key=_BY_SEQ)
        return out

    def demotable(self, protected: Optional[Set[Signature]] = None
                  ) -> List[RecycleEntry]:
        """Byte-pressure candidates with a spill tier: resident entries
        with no resident dependents (superset of the resident leaves)."""
        with self.all_locked():
            return self._demotable_locked(protected)

    def _demotable_locked(self, protected: Optional[Set[Signature]] = None
                          ) -> List[RecycleEntry]:
        """:meth:`demotable` for callers already holding all shard
        locks."""
        if protected:
            out = [
                e for s in self._shards
                for e in s.demotable_sigs.values()
                if e.sig not in protected
            ]
        else:
            out = [
                e for s in self._shards
                for e in s.demotable_sigs.values()
            ]
        out.sort(key=_BY_SEQ)
        return out

    def stale_entries(self, stale_columns: Set[Tuple[str, str]],
                      current_versions: Optional[Set[Tuple[str, str, int]]]
                      = None) -> List[RecycleEntry]:
        """Entries derived from any ``(table, column)`` in *stale_columns*.

        With *current_versions* given, entries already anchored at the
        current column version (e.g. just refreshed by delta propagation,
        §6.3) are not considered stale.

        Spilled entries participate through their stubs' ``sources`` —
        an intermediate on disk goes just as stale as one in memory.
        """
        out = []
        for e in self.entries():
            value = e.value
            if not isinstance(value, (BAT, SpilledStub)):
                continue
            for (t, c, v) in value.sources:
                if (t, c) not in stale_columns:
                    continue
                if current_versions and (t, c, v) in current_versions:
                    continue
                out.append(e)
                break
        return out

    def check_invariants(self) -> None:
        """Recompute all derived pool state and compare with the books
        (:func:`repro.core.invariants.check_pool`, which lists what is
        checked).  Takes all shard locks; for tests and debugging."""
        from repro.core.invariants import check_pool

        with self.all_locked():
            check_pool(self)

    def clear(self) -> List[RecycleEntry]:
        """Empty the pool — both tiers — returning the removed entries."""
        with self.all_locked():
            removed = [e for s in self._shards for e in s.by_sig.values()]
            removed.sort(key=_BY_SEQ)
            for s in self._shards:
                s.by_sig.clear()
                s.by_token.clear()
                s.by_op_arg.clear()
                s.leaf_sigs.clear()
                s.demotable_sigs.clear()
                s.consumers.clear()
                s.total_bytes = 0
                s.spilled_bytes = 0
            self.resident_images.clear()
            if self.spill is not None:
                self.spill.clear()
            for e in removed:
                e.dependents = 0
                e.spilled_dependents = 0
            return removed
