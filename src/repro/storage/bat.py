"""Binary Association Tables (BATs).

A BAT is a binary table ``(head: oid, tail: any)`` — the storage unit of a
canonical column store (paper §2.1).  The head column is usually a dense
sequence of object identifiers, which we represent without materialising it
(:class:`Dense`), mirroring MonetDB's void columns.

Three properties of the paper's kernel are preserved carefully because the
recycler depends on them:

* **Full materialisation** — every relational operator returns a new BAT
  (§2.3), so intermediates are available for recycling.
* **Zero-cost viewpoints** — ``reverse``, ``mirror`` and ``markT`` only
  create a new viewpoint over existing storage; they own no bytes
  (``owned_nbytes == 0``) and therefore cost nothing in the recycle pool.
* **Lineage** — every BAT carries a unique ``token`` (used for bottom-up
  instruction matching, §3.4 alternative 1), the set of persistent
  ``sources`` it was derived from (used for update invalidation, §6), and an
  optional ``subset_of`` token recording that its *row set* is a subset of
  another BAT's rows (used for semijoin subsumption, §5.1).
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable, Optional, Tuple, Union

import numpy as np

from repro.errors import BatTypeError, StorageError

OID_DTYPE = np.int64

#: Monotonically increasing BAT identity counter (thread-safe).
_token_counter = itertools.count(1)
_token_lock = threading.Lock()


def _next_token() -> int:
    with _token_lock:
        return next(_token_counter)


class Dense:
    """A dense (void) column: values ``start, start+1, ..., start+count-1``.

    Dense columns occupy no storage.  They model MonetDB's void heads and
    the result tails of ``markT``.
    """

    __slots__ = ("start", "count")

    def __init__(self, start: int, count: int):
        if count < 0:
            raise StorageError(f"Dense column with negative count {count}")
        self.start = int(start)
        self.count = int(count)

    def materialize(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.count, dtype=OID_DTYPE)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"Dense({self.start}, n={self.count})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Dense)
            and self.start == other.start
            and self.count == other.count
        )

    def __hash__(self) -> int:
        return hash(("Dense", self.start, self.count))


Column = Union[Dense, np.ndarray]


def column_length(col: Column) -> int:
    """Number of values in a column (dense or materialised)."""
    return len(col)


def column_values(col: Column) -> np.ndarray:
    """Materialise a column as a numpy array (dense columns are expanded)."""
    if isinstance(col, Dense):
        return col.materialize()
    return col


def column_nbytes(col: Column) -> int:
    """Bytes owned by a column; dense columns are free."""
    if isinstance(col, Dense):
        return 0
    return int(col.nbytes)


def _as_column(values: Union[Column, Iterable]) -> Column:
    if isinstance(values, (Dense, np.ndarray)):
        return values
    return np.asarray(values)


class BAT:
    """A binary table ``head -> tail`` with lineage metadata.

    Construct BATs through the class methods:

    * :meth:`BAT.materialized` — the operator allocated fresh storage; the
      BAT "owns" those bytes for recycle-pool accounting.
    * :meth:`BAT.view` — a zero-cost viewpoint over existing storage.
    * :meth:`BAT.persistent` — a persistent base column (owned by the
      catalogue, not by the pool).
    """

    __slots__ = (
        "head",
        "tail",
        "token",
        "sources",
        "subset_of",
        "subset_chain",
        "owned_nbytes",
        "tail_sorted",
        "persistent_name",
    )

    def __init__(
        self,
        head: Column,
        tail: Column,
        *,
        owned_nbytes: int,
        sources: frozenset = frozenset(),
        subset_of: Optional[int] = None,
        subset_chain: Tuple[int, ...] = (),
        tail_sorted: bool = False,
        persistent_name: Optional[str] = None,
    ):
        head = _as_column(head)
        tail = _as_column(tail)
        if column_length(head) != column_length(tail):
            raise StorageError(
                f"BAT head/tail length mismatch: "
                f"{column_length(head)} vs {column_length(tail)}"
            )
        self.head = head
        self.tail = tail
        self.token = _next_token()
        self.sources = sources
        self.subset_of = subset_of
        self.subset_chain = subset_chain
        self.owned_nbytes = int(owned_nbytes)
        self.tail_sorted = tail_sorted
        self.persistent_name = persistent_name

    def row_subset_of(self, token: int) -> bool:
        """True when this BAT's rows are provably a subset of *token*'s rows.

        Decided purely from lineage (the ``subset_chain`` accumulated by
        subset-producing operators) — no data comparison, per §5.1.
        """
        return token == self.subset_of or token in self.subset_chain

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def materialized(
        cls,
        head: Column,
        tail: Column,
        *,
        sources: frozenset = frozenset(),
        subset_parent: Optional["BAT"] = None,
        tail_sorted: bool = False,
    ) -> "BAT":
        """A BAT whose storage was freshly allocated by an operator.

        *subset_parent*, when given, records that the rows of the new BAT
        are a subset of the parent's rows (selection/semijoin lineage).
        """
        head = _as_column(head)
        tail = _as_column(tail)
        owned = column_nbytes(head) + column_nbytes(tail)
        return cls(
            head,
            tail,
            owned_nbytes=owned,
            sources=sources,
            subset_of=subset_parent.token if subset_parent else None,
            subset_chain=(
                subset_parent.subset_chain + (subset_parent.token,)
                if subset_parent
                else ()
            ),
            tail_sorted=tail_sorted,
        )

    @classmethod
    def view(
        cls,
        head: Column,
        tail: Column,
        *,
        sources: frozenset = frozenset(),
        subset_parent: Optional["BAT"] = None,
        subset_of: Optional[int] = None,
        subset_chain: Tuple[int, ...] = (),
        tail_sorted: bool = False,
    ) -> "BAT":
        """A zero-cost viewpoint sharing existing storage (owns no bytes)."""
        if subset_parent is not None:
            subset_of = subset_parent.token
            subset_chain = subset_parent.subset_chain + (subset_parent.token,)
        return cls(
            head,
            tail,
            owned_nbytes=0,
            sources=sources,
            subset_of=subset_of,
            subset_chain=subset_chain,
            tail_sorted=tail_sorted,
        )

    @classmethod
    def persistent(
        cls,
        name: str,
        values: np.ndarray,
        *,
        sources: frozenset,
        hseqbase: int = 0,
        tail_sorted: bool = False,
    ) -> "BAT":
        """A persistent base column ``[oid -> value]`` owned by the catalogue."""
        values = np.asarray(values)
        return cls(
            Dense(hseqbase, len(values)),
            values,
            owned_nbytes=0,
            sources=sources,
            tail_sorted=tail_sorted,
            persistent_name=name,
        )

    @classmethod
    def from_tail(cls, values: Iterable, *, hseqbase: int = 0) -> "BAT":
        """Convenience: dense-headed BAT over a fresh tail array."""
        tail = np.asarray(values)
        bat = cls(
            Dense(hseqbase, len(tail)),
            tail,
            owned_nbytes=int(tail.nbytes),
        )
        return bat

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return column_length(self.head)

    @property
    def count(self) -> int:
        """Number of tuples (BUNs) in the BAT."""
        return len(self)

    def head_values(self) -> np.ndarray:
        """The head column as a numpy array (dense heads are expanded)."""
        return column_values(self.head)

    def tail_values(self) -> np.ndarray:
        """The tail column as a numpy array (dense tails are expanded)."""
        return column_values(self.tail)

    @property
    def head_dense(self) -> bool:
        return isinstance(self.head, Dense)

    @property
    def tail_dense(self) -> bool:
        return isinstance(self.tail, Dense)

    @property
    def hseqbase(self) -> Optional[int]:
        """Start oid of a dense head, or ``None`` for materialised heads."""
        return self.head.start if isinstance(self.head, Dense) else None

    def tuples(self) -> Iterable[Tuple]:
        """Iterate ``(head, tail)`` pairs — for tests and debugging only."""
        return zip(self.head_values().tolist(), self.tail_values().tolist())

    # ------------------------------------------------------------------
    # Zero-cost viewpoint operators (paper §2.2: reverse / mirror / markT)
    # ------------------------------------------------------------------
    def reverse(self) -> "BAT":
        """Swap head and tail: ``[h -> t]`` becomes ``[t -> h]`` (zero cost)."""
        return BAT.view(
            self.tail,
            self.head,
            sources=self.sources,
            subset_of=self.subset_of,
            subset_chain=self.subset_chain,
        )

    def mirror(self) -> "BAT":
        """``[h -> t]`` becomes ``[h -> h]`` (zero cost)."""
        return BAT.view(
            self.head,
            self.head,
            sources=self.sources,
            subset_of=self.subset_of,
            subset_chain=self.subset_chain,
        )

    def mark(self, base: int = 0) -> "BAT":
        """``markT``: keep the head, tail becomes a fresh dense oid sequence."""
        return BAT.view(
            self.head,
            Dense(base, len(self)),
            sources=self.sources,
            subset_of=self.subset_of,
            subset_chain=self.subset_chain,
        )

    # ------------------------------------------------------------------
    # Two-tier recycle pool
    # ------------------------------------------------------------------
    @property
    def spillable(self) -> bool:
        """True when both columns can be written as raw bytes.

        Object-dtype columns would need pickling and cannot be
        memory-mapped back, so they are excluded from the spill tier.
        """
        for col in (self.head, self.tail):
            if isinstance(col, np.ndarray) and col.dtype.hasobject:
                return False
        return True

    # ------------------------------------------------------------------
    def require_numeric_tail(self, op: str) -> np.ndarray:
        """Tail as array, raising :class:`BatTypeError` for non-numeric tails."""
        tail = self.tail_values()
        if tail.dtype.kind not in "biufM":
            raise BatTypeError(f"{op}: expected numeric tail, got {tail.dtype}")
        return tail

    def __repr__(self) -> str:
        kind = "persistent" if self.persistent_name else (
            "view" if self.owned_nbytes == 0 else "materialized"
        )
        return f"BAT(token={self.token}, n={len(self)}, {kind})"
