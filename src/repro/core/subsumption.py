"""Instruction subsumption (paper §5).

When no exact match exists, the recycler searches the pool for
intermediates whose result *contains* the target's result and rewrites the
instruction to run over the (smaller) cached intermediate:

* **Singleton range-select** (§5.1): ``select(X, lb2, ub2)`` runs over the
  pooled result of ``select(X, lb1, ub1)`` when ``[lb2,ub2] ⊆ [lb1,ub1]``;
  equality/IN selections subsume from covering ranges the same way.
* **LIKE subsumption** (§5.1): a pattern provably more specific than a
  pooled pattern runs over the pooled result (conservative check).
* **Semijoin subsumption** (§5.1): ``semijoin(X, W)`` runs over the pooled
  ``semijoin(X, V)`` when ``W ⊂ V`` — decided from subset lineage chains,
  no data comparison.
* **Combined subsumption** (§5.2, Algorithm 2): a dynamic program finds the
  cheapest *set* of pooled ranges covering the target; the target range is
  split into disjoint segments (one per piece) so overlapping pieces never
  duplicate rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.pool import RecycleEntry


@dataclass(frozen=True)
class Range:
    """A one-dimensional selection range with per-bound inclusivity.

    ``None`` bounds are unbounded.  Values are whatever the column holds
    (numbers, numpy datetimes, strings) — only comparisons are used.
    """

    lo: Any
    hi: Any
    lo_incl: bool = True
    hi_incl: bool = True

    @classmethod
    def point(cls, value) -> "Range":
        return cls(value, value, True, True)


def _lo_covers(outer: Range, inner: Range) -> bool:
    """Outer's lower bound admits everything inner's admits."""
    if outer.lo is None:
        return True
    if inner.lo is None:
        return False
    if outer.lo < inner.lo:
        return True
    if outer.lo == inner.lo:
        return outer.lo_incl or not inner.lo_incl
    return False


def _hi_covers(outer: Range, inner: Range) -> bool:
    if outer.hi is None:
        return True
    if inner.hi is None:
        return False
    if outer.hi > inner.hi:
        return True
    if outer.hi == inner.hi:
        return outer.hi_incl or not inner.hi_incl
    return False


def covers(outer: Range, inner: Range) -> bool:
    """True when every value in *inner* is also in *outer*."""
    try:
        return _lo_covers(outer, inner) and _hi_covers(outer, inner)
    except TypeError:
        # Unorderable bound types (a pool entry whose bounds are of a
        # different kind than the probe's — e.g. admitted by a plan
        # over differently-typed values).  Not a cover; the probe just
        # recomputes from base.
        return False


def _separated(a: Range, b: Range) -> bool:
    """True when a ends strictly before b begins (no touch)."""
    if a.hi is None or b.lo is None:
        return False
    if a.hi < b.lo:
        return True
    if a.hi == b.lo:
        return not (a.hi_incl or b.lo_incl)
    return False


def connects(a: Range, b: Range) -> bool:
    """Ranges overlap or touch (their union is a single interval)."""
    try:
        return not _separated(a, b) and not _separated(b, a)
    except TypeError:
        # Unorderable bound types never combine (see covers()).
        return False


def merge(a: Range, b: Range) -> Range:
    """Union of two connecting ranges (caller guarantees ``connects``)."""
    if a.lo is None or b.lo is None:
        lo, lo_incl = None, True
    elif a.lo < b.lo or (a.lo == b.lo and a.lo_incl):
        lo, lo_incl = a.lo, a.lo_incl
    else:
        lo, lo_incl = b.lo, b.lo_incl
    if a.hi is None or b.hi is None:
        hi, hi_incl = None, True
    elif a.hi > b.hi or (a.hi == b.hi and a.hi_incl):
        hi, hi_incl = a.hi, a.hi_incl
    else:
        hi, hi_incl = b.hi, b.hi_incl
    return Range(lo, hi, lo_incl, hi_incl)


# ---------------------------------------------------------------------------
# LIKE pattern subsumption (conservative)
# ---------------------------------------------------------------------------
def _literal_segments(pattern: str) -> List[str]:
    """Maximal wildcard-free substrings of a LIKE pattern."""
    out, cur = [], []
    for ch in pattern:
        if ch in "%_":
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def like_subsumes(general: str, specific: str) -> bool:
    """Conservatively decide ``L(specific) ⊆ L(general)``.

    Handles the practically important shapes — prefix ``abc%``, suffix
    ``%abc`` and infix ``%abc%`` generals — and answers False whenever
    unsure (a false negative only costs a recomputation).
    """
    if general == specific:
        return True
    body = general.strip("%")
    if not body or "%" in body or "_" in body:
        return general == "%"  # '%' matches everything
    prefix_general = general.endswith("%") and not general.startswith("%")
    suffix_general = general.startswith("%") and not general.endswith("%")
    infix_general = general.startswith("%") and general.endswith("%")
    if prefix_general:
        spec_prefix = specific.split("%", 1)[0].split("_", 1)[0]
        return spec_prefix.startswith(body)
    if suffix_general:
        if specific.endswith("%") or specific.endswith("_"):
            return False
        segments = _literal_segments(specific)
        return bool(segments) and segments[-1].endswith(body) and \
            specific.endswith(segments[-1])
    if infix_general:
        return any(body in seg for seg in _literal_segments(specific))
    return False


# ---------------------------------------------------------------------------
# Pool-entry range parsing
# ---------------------------------------------------------------------------
def select_entry_range(entry: RecycleEntry) -> Optional[Range]:
    """Recover the selection range of a pooled ``algebra.select`` entry."""
    if entry.opname != "algebra.select":
        return None
    # sig = (op, ('b', token), ('c', lo), ('c', hi), ('c', li), ('c', hi_i))
    try:
        lo = entry.sig[2][1]
        hi = entry.sig[3][1]
        lo_incl = bool(entry.sig[4][1])
        hi_incl = bool(entry.sig[5][1])
    except (IndexError, TypeError):
        return None
    return Range(lo, hi, lo_incl, hi_incl)


def select_target(opname: str, args: Sequence[Any]) -> Optional[Range]:
    """The range a range, equality or IN-list selection asks for, from
    its resolved arguments; None for an empty IN-list."""
    if opname == "algebra.select":
        return Range(args[1], args[2], bool(args[3]), bool(args[4]))
    if opname == "algebra.uselect":
        return Range.point(args[1])
    values = list(args[1])
    return Range(min(values), max(values), True, True) if values else None


# ---------------------------------------------------------------------------
# Combined subsumption: Algorithm 2
# ---------------------------------------------------------------------------
def find_combined_cover(
    target: Range,
    pieces: Sequence[Tuple[Range, RecycleEntry]],
    base_cost: float,
    overhead: float = 0.0,
    max_pieces: int = 12,
    max_partials: int = 256,
) -> Optional[List[Tuple[Range, RecycleEntry]]]:
    """Algorithm 2: cheapest set of pooled ranges covering *target*.

    Partial solutions grow one connecting piece at a time; candidates whose
    estimated cost (sum of piece sizes + overhead) already exceeds the best
    known solution — initially the cost of computing from the base operand
    — are pruned.  Returns None when recomputing from base is cheaper.
    """
    relevant = [
        (rng, e) for rng, e in pieces if connects(rng, target)
    ][:max_pieces]
    if not relevant:
        return None

    def cost(sol: Tuple[int, ...]) -> float:
        return sum(relevant[i][1].tuples for i in sol) + overhead

    best_cost = base_cost
    best: Optional[Tuple[int, ...]] = None

    # Partial solution: (indices, union_range).  Union stays one interval
    # because growth requires connectivity.
    partials: List[Tuple[Tuple[int, ...], Range]] = []
    for i, (rng, entry) in enumerate(relevant):
        sol = (i,)
        c = cost(sol)
        if c >= best_cost:
            continue
        if covers(rng, target):
            best_cost, best = c, sol
        else:
            partials.append((sol, rng))

    for _size in range(1, len(relevant)):
        if not partials:
            break
        nxt: List[Tuple[Tuple[int, ...], Range]] = []
        for sol, union in partials:
            for i, (rng, entry) in enumerate(relevant):
                if i in sol or not connects(union, rng):
                    continue
                candidate = tuple(sorted(sol + (i,)))
                c = cost(candidate)
                if c >= best_cost:
                    continue
                new_union = merge(union, rng)
                if covers(new_union, target):
                    best_cost, best = c, candidate
                else:
                    nxt.append((candidate, new_union))
        # Deduplicate and bound the frontier.
        seen = set()
        partials = []
        for sol, union in nxt:
            if sol not in seen:
                seen.add(sol)
                partials.append((sol, union))
            if len(partials) >= max_partials:
                break

    if best is None:
        return None
    return [relevant[i] for i in best]


def split_target_into_segments(
    target: Range, chosen: List[Tuple[Range, RecycleEntry]]
) -> List[Tuple[Range, RecycleEntry]]:
    """Assign each chosen piece a disjoint sub-range of *target*.

    Pieces are walked in ascending lower-bound order; each contributes the
    part of the target it covers beyond the previous pieces.  Disjointness
    guarantees the concatenated results contain no duplicate rows even
    though the pooled pieces overlap.
    """

    def lo_sort_key(item):
        rng = item[0]
        if rng.lo is None:
            return (0, 0, 0)
        return (1, rng.lo, 0 if rng.lo_incl else 1)

    ordered = sorted(chosen, key=lo_sort_key)
    segments: List[Tuple[Range, RecycleEntry]] = []
    cur_lo, cur_incl = target.lo, target.lo_incl
    done = False
    for rng, entry in ordered:
        if done:
            break
        seg_lo, seg_lo_incl = cur_lo, cur_incl
        # Segment upper bound: min(piece.hi, target.hi).
        if rng.hi is None or (target.hi is not None and
                              (rng.hi > target.hi or
                               (rng.hi == target.hi and rng.hi_incl))):
            seg_hi, seg_hi_incl = target.hi, target.hi_incl
            done = True
        else:
            seg_hi, seg_hi_incl = rng.hi, rng.hi_incl
            if target.hi is None:
                done = rng.hi is None
        seg = Range(seg_lo, seg_hi, seg_lo_incl, seg_hi_incl)
        if seg_hi is not None and seg_lo is not None:
            if seg_hi < seg_lo or (seg_hi == seg_lo and
                                   not (seg_lo_incl and seg_hi_incl)):
                continue  # piece adds nothing beyond previous ones
        segments.append((seg, entry))
        # Next segment starts just above this one.
        cur_lo, cur_incl = seg_hi, not seg_hi_incl
    return segments
