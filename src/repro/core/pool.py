"""The recycle pool: a cache of intermediates with lineage.

Entries are keyed by *instruction signature* — operator name plus resolved
argument identities (scalar constants by value, BAT arguments by lineage
token).  Because a pool hit returns the pooled BAT itself, a re-submitted
template resolves downstream signatures to pooled tokens exactly when its
whole instruction prefix matched: the bottom-up sequence matching of design
alternative 1 (§3.4), with lineage preserved as §4.1 requires.

The pool also maintains the dependency graph between entries (who consumes
whose result), which the eviction policies need: only *leaf* entries — no
dependents in the pool — may be evicted (§4.3).

Entries at a program's frontier are also booked under a *lineage key*
(``by_lineage``), which the plan and the parameters determine without
executing anything: the top-down probe of
:meth:`~repro.core.recycler.Recycler.serve_frontier` starts there.

The pool is **two-tiered**: every entry is either ``RESIDENT`` (its BAT
in memory, counted in ``total_bytes``) or ``SPILLED`` (only its image in
the attached :class:`~repro.storage.spill.SpillStore`, a
:class:`~repro.storage.spill.SpilledStub` in its place, counted in
``spilled_bytes``); the tier is the type of ``entry.value``.  Demotion
and promotion move an entry between tiers without touching the
signature index, the dependency graph or the subsumption buckets — a spilled entry still matches, still invalidates on
updates, and still anchors its dependents.  An image is written once and
lives as long as its entry: promotion keeps it (pooled BATs are
immutable, so re-demoting is a stub swap), and it goes when the entry
leaves the pool or the disk quota needs the room (``drop_image``).

Locking: one re-entrant :attr:`RecyclePool.lock` guards every book here
and the statistics of every entry.  Each method takes it, so the pool is
safe to use directly from many threads; the recycler holds it across
whole Algorithm-1 steps (lookup + booking, eviction sweep + admission).
Eviction-candidate lists are ordered by admission sequence number.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import RecyclerError
from repro.storage.bat import BAT
from repro.storage.spill import SpilledStub, SpillStore

Signature = Tuple  # (opname, arg_id, arg_id, ...)

#: Entry tiers, as :attr:`RecycleEntry.state` names them.
RESIDENT = "resident"
SPILLED = "spilled"

#: Sort key for admission order (entry.seq).
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


def source_tables(value: Any) -> Set[str]:
    """The tables a pooled value (BAT or spill stub) was derived from.

    Derived on each use, never stored: a set that dies at once costs the
    garbage collector nothing, where one kept per entry made it run more
    often under a large pool."""
    return {t for t, _c, _v in value.sources}


def first_bat_token(sig: Signature) -> Optional[int]:
    """The token of the signature's first BAT argument — the key of its
    subsumption bucket (§5)."""
    for part in sig[1:]:
        if part[0] == "b":
            return part[1]
    return None


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
    local_reuses: int = 0
    global_reuses: int = 0
    subsumed_reuses: int = 0
    promotions: int = 0              # disk-to-memory moves of this entry
    saved_time: float = 0.0
    dependents: int = 0              # pool entries consuming our result
    spilled_dependents: int = 0      # ... of which currently on disk
    seq: int = 0                     # pool admission order
    #: The lineage key the entry is booked under in
    #: :attr:`RecyclePool.by_lineage` (None: found by signature only).
    lineage: Optional[Tuple] = None
    #: The result token (a demoted entry's stub carries the same one).
    result_token: int = field(init=False, repr=False)

    def __post_init__(self):
        self.result_token = self.value.token

    @property
    def is_spilled(self) -> bool:
        return isinstance(self.value, SpilledStub)

    @property
    def state(self) -> str:
        """``RESIDENT`` (memory) or ``SPILLED`` (disk)."""
        return SPILLED if self.is_spilled else RESIDENT

    @property
    def reuse_count(self) -> int:
        """Total reuses (the paper's k - 1)."""
        return self.local_reuses + self.global_reuses

    @property
    def references(self) -> int:
        """The paper's k: total references = computation + reuses."""
        return 1 + self.reuse_count

    @property
    def has_global_reuse(self) -> bool:
        return self.global_reuses > 0

    @property
    def token_is_stable(self) -> bool:
        """Does this entry's result token survive eviction?

        Persistent binds and join indices come from the catalogue's bind
        caches: re-executing them returns the *same* BAT (same token)
        until an update bumps the column version, so their dependents
        remain matchable after the producer entry is destroyed — the
        contract of :attr:`RecyclePool.consumers`.
        """
        return getattr(self.value, "persistent_name", None) is not None


class LeafOrder:
    """The pool's leaves in an eviction policy's order: ``(key(entry),
    seq)``, smallest first — exactly the order in which the policy's scan
    (a ``min``/stable sort over the leaves in admission order) picks
    them.  A heap with lazy deletion: a leaf whose key changed is pushed
    again, and stale items are skipped when popped.  Only for keys that
    change when the entry is reused and at no other time (LRU's last use,
    BP's benefit)."""

    def __init__(self, key: Callable[[RecycleEntry], float],
                 leaves: Iterable[RecycleEntry] = ()):
        self.key = key
        self._tie = itertools.count()
        #: Leaf -> its live heap item ``(key, seq, tie, entry)``.
        self.live: Dict[RecycleEntry, Tuple] = {}
        self._heap: List[Tuple] = []
        for entry in leaves:
            self.push(entry)

    def push(self, entry: RecycleEntry) -> None:
        """(Re)insert a leaf under its current key."""
        item = (self.key(entry), entry.seq, next(self._tie), entry)
        self.live[entry] = item
        heapq.heappush(self._heap, item)
        if len(self._heap) > 2 * len(self.live) + 64:
            self._heap = list(self.live.values())
            heapq.heapify(self._heap)

    def update(self, entry: RecycleEntry) -> None:
        """Re-key *entry* after a reuse, if it is a leaf."""
        if entry in self.live:
            self.push(entry)

    def discard(self, entry: RecycleEntry) -> None:
        self.live.pop(entry, None)

    def pop(self, n: int, protected: Set[Signature]) -> List[RecycleEntry]:
        """Take the first *n* leaves whose signature is not *protected*
        out of the order (the caller evicts them)."""
        out: List[RecycleEntry] = []
        held: List[Tuple] = []
        heap, live = self._heap, self.live
        while heap and len(out) < n:
            item = heapq.heappop(heap)
            entry = item[3]
            if live.get(entry) is not item:
                continue  # stale: re-keyed, or no longer a leaf
            if entry.sig in protected:
                held.append(item)
                continue
            del live[entry]
            out.append(entry)
        for item in held:
            heapq.heappush(heap, item)
        return out

    def problems(self, leaves: Dict[Signature, RecycleEntry]) -> List[str]:
        """How the order disagrees with the leaf set (for the invariant
        check)."""
        out = []
        if set(self.live) != set(leaves.values()):
            out.append("leaf order does not list exactly the leaves")
        queued = {id(item) for item in self._heap}
        for entry, item in self.live.items():
            if item[:2] != (self.key(entry), entry.seq) \
                    or id(item) not in queued:
                out.append(f"leaf order key of {entry.opname} is stale")
        return out


class RecyclePool:
    """Signature-keyed store of :class:`RecycleEntry`, guarded by
    :attr:`lock` (see the module docstring)."""

    def __init__(self):
        #: The one pool lock (re-entrant): guards every book below and the
        #: statistics of every entry.  The identity fields of an entry are
        #: immutable while it is pooled.
        self.lock = threading.RLock()
        self._seq = itertools.count(1)
        #: Signature index, in admission order.
        self.by_sig: Dict[Signature, RecycleEntry] = {}
        #: (opname, first BAT argument token) -> entries: the §5
        #: subsumption search space.
        self.by_op_arg: Dict[Tuple[str, int], List[RecycleEntry]] = {}
        #: Memory-tier bytes: owned bytes of RESIDENT entries only.
        self.total_bytes = 0
        #: Disk-tier bytes: owned bytes of SPILLED entries (logical BAT
        #: size; the store tracks actual file sizes for its quota).
        self.spilled_bytes = 0
        #: Result token -> the entry producing it.
        self.by_token: Dict[int, RecycleEntry] = {}
        #: Lineage key -> the pooled entry most recently booked under it:
        #: where a warm invocation finds its frontier top-down (see
        #: :class:`~repro.mal.program.ConePlan`).  Holds pooled entries
        #: only, so it pins nothing the pool has let go.
        self.by_lineage: Dict[Tuple, RecycleEntry] = {}
        #: arg-token -> the pool entries consuming it (a producer's
        #: ``dependents`` is the size of its token's set).  Kept even for
        #: tokens whose producer is not (or no longer) pooled: a persistent
        #: bind result has a stable token, so its entry can be evicted and
        #: re-admitted *after* consumers of that token — the re-admitted
        #: entry must start with the surviving consumers, not none.
        self.consumers: Dict[int, Set[RecycleEntry]] = {}
        #: Entries with no dependents (eviction candidates) and resident
        #: entries with no resident dependents (demotion candidates).
        self.leaf_sigs: Dict[Signature, RecycleEntry] = {}
        self.demotable_sigs: Dict[Signature, RecycleEntry] = {}
        #: The leaves in the eviction policy's order, kept once the
        #: recycler first evicts under entry pressure alone
        #: (:meth:`order_leaves`); None until then.
        self.leaf_order: Optional[LeafOrder] = None
        #: table -> the entries with a source in it, in admission order:
        #: what a write to the table must visit (§6.4 invalidates by
        #: table).
        self.by_table: Dict[str, Dict[RecycleEntry, None]] = {}
        #: The disk tier, attached by the recycler when spilling is
        #: configured; None keeps the classic single-tier behaviour.
        self.spill: Optional[SpillStore] = None
        #: token -> resident entry whose spill image is still on disk
        #: (promoted, not yet re-demoted): the images the disk quota may
        #: reclaim for free.
        self.resident_images: Dict[int, RecycleEntry] = {}

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.by_sig)

    def usage(self) -> Tuple[int, int]:
        """``(total_bytes, len(pool))`` — exact under :attr:`lock`,
        advisory without it."""
        return self.total_bytes, len(self.by_sig)

    def __contains__(self, sig: Signature) -> bool:
        return sig in self.by_sig

    def entries(self) -> List[RecycleEntry]:
        """Every entry, in admission order (``by_sig`` keeps it)."""
        with self.lock:
            return list(self.by_sig.values())

    def table_entries(self, table: str) -> List[RecycleEntry]:
        """The entries with a source in *table*, in admission order."""
        with self.lock:
            return list(self.by_table.get(table, ()))

    def lookup(self, sig: Signature) -> Optional[RecycleEntry]:
        with self.lock:
            return self.by_sig.get(sig)

    def candidates(self, opname: str, first_token: int) -> List[RecycleEntry]:
        """Entries of *opname* whose first BAT argument is *first_token* —
        the subsumption search space (§5)."""
        with self.lock:
            return list(self.by_op_arg.get((opname, first_token), ()))

    # ------------------------------------------------------------------
    # Admission and removal
    # ------------------------------------------------------------------
    def add(self, entry: RecycleEntry) -> bool:
        """Admit *entry* unless its signature is already pooled.  Returns
        True when the entry went in."""
        if entry.is_spilled:
            raise RecyclerError("entries are admitted resident, not spilled")
        operands = entry.arg_tokens
        if len(operands) > 1 and len(set(operands)) != len(operands):
            # One dependency per distinct operand, however often passed.
            entry.arg_tokens = tuple(dict.fromkeys(operands))
        with self.lock:
            if entry.sig in self.by_sig:
                return False
            entry.seq = next(self._seq)
            self.by_sig[entry.sig] = entry
            token = entry.result_token
            self.by_token[token] = entry
            if entry.lineage is not None:
                self.by_lineage[entry.lineage] = entry
            # Consumers admitted while our token had no pooled producer
            # (possible for stable persistent-bind tokens) count from the
            # start — otherwise their later removal drives us negative.
            waiting = self.consumers.get(token)
            if waiting:
                entry.dependents = len(waiting)
                entry.spilled_dependents = sum(c.is_spilled for c in waiting)
            else:
                entry.dependents = entry.spilled_dependents = 0
            first = first_bat_token(entry.sig)
            if first is not None:
                self.by_op_arg.setdefault(
                    (entry.opname, first), []).append(entry)
            for table in source_tables(entry.value):
                book = self.by_table.get(table)
                if book is None:
                    book = self.by_table[table] = {}
                book[entry] = None
            for t in entry.arg_tokens:
                consumers = self.consumers.get(t)
                if consumers is None:
                    self.consumers[t] = {entry}
                else:
                    consumers.add(entry)
                parent = self.by_token.get(t)
                if parent is not None:
                    parent.dependents += 1
                    self._unset_leaf(parent)
                    self._update_demotable(parent)
            if entry.dependents == 0:
                self._set_leaf(entry)
            self._update_demotable(entry)
            self.total_bytes += entry.nbytes
            return True

    def remove(self, entry: RecycleEntry) -> None:
        """Remove a leaf entry (no-op when it is no longer pooled)."""
        with self.lock:
            if entry.sig not in self.by_sig:
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
        with self.lock:
            doomed = [e for e in doomed if e.sig in self.by_sig]
            doomed_tokens = {e.result_token for e in doomed}
            for e in doomed:
                self._discard(e, skip_parent_tokens=doomed_tokens)
            return len(doomed)

    def _set_leaf(self, entry: RecycleEntry) -> None:
        self.leaf_sigs[entry.sig] = entry
        if self.leaf_order is not None:
            self.leaf_order.push(entry)

    def _unset_leaf(self, entry: RecycleEntry) -> None:
        self.leaf_sigs.pop(entry.sig, None)
        if self.leaf_order is not None:
            self.leaf_order.discard(entry)

    def order_leaves(self, key: Callable[[RecycleEntry], float]
                     ) -> LeafOrder:
        """The leaves ordered by *key* (built on first call, then kept up
        to date).  Caller holds the lock."""
        if self.leaf_order is None:
            self.leaf_order = LeafOrder(key, self.leaf_sigs.values())
        return self.leaf_order

    def book_lineage(self, entry: RecycleEntry, key: Tuple) -> None:
        """Book the pooled *entry* under lineage *key*, in place of
        whatever either held before."""
        with self.lock:
            if (self.by_sig.get(entry.sig) is not entry
                    or self.by_lineage.get(key) is entry):
                return
            self._unbook_lineage(entry)
            entry.lineage = key
            self.by_lineage[key] = entry

    def _unbook_lineage(self, entry: RecycleEntry) -> None:
        key = entry.lineage
        if key is not None and self.by_lineage.get(key) is entry:
            del self.by_lineage[key]

    def _update_demotable(self, entry: RecycleEntry) -> None:
        """Re-derive one entry's membership in the demotable set.

        A resident entry whose dependents are all spilled may be demoted
        even when it is not a leaf: its spilled dependents reference it by
        token, which survives the round trip — the whole execution thread
        moves to disk and stays matchable (§4.1's rationale, extended to
        the two-tier pool).
        """
        if (not entry.is_spilled
                and entry.dependents == entry.spilled_dependents
                and self.by_token.get(entry.result_token) is entry):
            self.demotable_sigs[entry.sig] = entry
        else:
            self.demotable_sigs.pop(entry.sig, None)

    def _discard(self, entry: RecycleEntry,
                 skip_parent_tokens: Optional[Set[int]] = None) -> None:
        del self.by_sig[entry.sig]
        self._unset_leaf(entry)
        self.demotable_sigs.pop(entry.sig, None)
        self.by_token.pop(entry.result_token, None)
        self._unbook_lineage(entry)
        first = first_bat_token(entry.sig)
        if first is not None:
            bucket = self.by_op_arg.get((entry.opname, first))
            if bucket is not None:
                try:
                    bucket.remove(entry)
                except ValueError:
                    pass
                if not bucket:
                    del self.by_op_arg[(entry.opname, first)]
        for table in source_tables(entry.value):
            book = self.by_table[table]
            del book[entry]
            if not book:
                del self.by_table[table]
        spilled = entry.is_spilled
        for t in entry.arg_tokens:
            consumers = self.consumers[t]
            consumers.discard(entry)
            if not consumers:
                del self.consumers[t]
            if skip_parent_tokens and t in skip_parent_tokens:
                continue
            parent = self.by_token.get(t)
            if parent is not None:
                parent.dependents -= 1
                if spilled:
                    parent.spilled_dependents -= 1
                if parent.dependents == 0:
                    self._set_leaf(parent)
                self._update_demotable(parent)
        if spilled:
            self.spilled_bytes -= entry.nbytes
        else:
            self.total_bytes -= entry.nbytes
        if self.spill is not None:
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
        with self.lock:
            if entry.sig not in self.by_sig or entry.is_spilled:
                raise RecyclerError(f"cannot demote {entry.opname}")
            stub = None if self.spill is None \
                else self.spill.image(entry.result_token)
            if stub is None:
                raise RecyclerError(
                    f"demoting {entry.opname} without a spill image"
                )
            entry.value = stub
            self.resident_images.pop(entry.result_token, None)
            self.demotable_sigs.pop(entry.sig, None)
            for t in entry.arg_tokens:
                parent = self.by_token.get(t)
                if parent is not None:
                    parent.spilled_dependents += 1
                    self._update_demotable(parent)
            self.total_bytes -= entry.nbytes
            self.spilled_bytes += entry.nbytes

    def promote(self, entry: RecycleEntry, value: BAT) -> None:
        """Bring a spilled *entry* back to memory with the reloaded BAT.

        *value* must carry the original token (``SpillStore.load``
        guarantees it), so the token index keeps pointing at the same
        lineage.  The image stays in the store: the BAT is immutable, so
        a later re-demotion is a stub swap with no I/O.  It is dropped
        when the entry leaves the pool, or by :meth:`drop_image` when the
        disk quota needs the room.
        """
        with self.lock:
            if entry.sig not in self.by_sig or not entry.is_spilled:
                raise RecyclerError(f"cannot promote {entry.opname}")
            token = entry.result_token
            if value.token != token:
                raise RecyclerError(
                    f"promotion token mismatch: entry {token}, "
                    f"BAT {value.token}"
                )
            entry.value = value
            entry.promotions += 1
            self.resident_images[token] = entry
            for t in entry.arg_tokens:
                parent = self.by_token.get(t)
                if parent is not None:
                    parent.spilled_dependents -= 1
                    self._update_demotable(parent)
            self._update_demotable(entry)
            self.spilled_bytes -= entry.nbytes
            self.total_bytes += entry.nbytes

    def drop_image(self, entry: RecycleEntry) -> None:
        """Delete *entry*'s spill image, if it has one.  Free for a
        resident entry (it merely loses its zero-I/O re-demotion); for a
        spilled one the caller is removing the entry."""
        with self.lock:
            self.resident_images.pop(entry.result_token, None)
            self.spill.delete(entry.result_token)

    @property
    def spilled_count(self) -> int:
        """Number of spilled entries: every image belongs to a pooled
        entry, and the resident ones are indexed."""
        if self.spill is None:
            return 0
        return len(self.spill) - len(self.resident_images)

    # ------------------------------------------------------------------
    # Candidate lists (admission order)
    # ------------------------------------------------------------------
    def dependent_thread(self, entry: RecycleEntry) -> List[RecycleEntry]:
        """The transitive pool dependents of *entry*, found by walking the
        consumer index — cost proportional to the thread, not the pool."""
        thread: Dict[RecycleEntry, None] = {}
        tokens = [entry.result_token]
        with self.lock:
            while tokens:
                for c in self.consumers.get(tokens.pop(), ()):
                    if c not in thread and c is not entry:
                        thread[c] = None
                        tokens.append(c.result_token)
        return sorted(thread, key=_BY_SEQ)

    def spilled_leaves(self) -> List[RecycleEntry]:
        """Spilled entries with no dependents — disk-tier quota victims."""
        with self.lock:
            out = [e for e in self.leaf_sigs.values() if e.is_spilled]
        out.sort(key=_BY_SEQ)
        return out

    def leaves(self, protected: Optional[Set[Signature]] = None
               ) -> List[RecycleEntry]:
        """Eviction candidates: entries with no dependents, minus
        *protected*."""
        return self._unprotected(self.leaf_sigs, protected)

    def demotable(self, protected: Optional[Set[Signature]] = None
                  ) -> List[RecycleEntry]:
        """Byte-pressure candidates with a spill tier: resident entries
        with no resident dependents (superset of the resident leaves),
        minus *protected*."""
        return self._unprotected(self.demotable_sigs, protected)

    def _unprotected(self, members: Dict[Signature, RecycleEntry],
                     protected: Optional[Set[Signature]]
                     ) -> List[RecycleEntry]:
        with self.lock:
            if protected:
                out = [e for e in members.values()
                       if e.sig not in protected]
            else:
                out = list(members.values())
        out.sort(key=_BY_SEQ)
        return out

    def check_invariants(self) -> None:
        """Recompute all derived pool state and compare with the books
        (:func:`repro.core.invariants.check_pool`, which lists what is
        checked).  For tests and debugging."""
        from repro.core.invariants import check_pool

        with self.lock:
            check_pool(self)

    def clear(self) -> List[RecycleEntry]:
        """Empty the pool — both tiers — returning the removed entries."""
        with self.lock:
            removed = list(self.by_sig.values())
            self.by_sig.clear()
            self.by_token.clear()
            self.by_lineage.clear()
            self.by_op_arg.clear()
            self.by_table.clear()
            self.leaf_sigs.clear()
            if self.leaf_order is not None:
                self.leaf_order = LeafOrder(self.leaf_order.key)
            self.demotable_sigs.clear()
            self.consumers.clear()
            self.total_bytes = 0
            self.spilled_bytes = 0
            self.resident_images.clear()
            if self.spill is not None:
                self.spill.clear()
            for e in removed:
                e.dependents = 0
                e.spilled_dependents = 0
            return removed
