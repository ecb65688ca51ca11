"""Join-family operator tests, including hypothesis vs brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterpreterError
from repro.mal.operators.joins import (
    algebra_join,
    algebra_kdifference,
    algebra_kunique,
    algebra_leftfetchjoin,
    algebra_semijoin,
)
from repro.storage.bat import BAT, Dense


def bat(head, tail):
    return BAT(np.asarray(head), np.asarray(tail), owned_nbytes=0)


def dense_bat(tail, base=0):
    arr = np.asarray(tail)
    return BAT(Dense(base, len(arr)), arr, owned_nbytes=0)


class TestJoin:
    def test_dense_right_positional(self):
        l = bat([0, 1, 2], [2, 0, 9])       # tail -> oid into r
        r = dense_bat(["a", "b", "c"])      # oids 0..2
        out = algebra_join(None, l, r)
        assert list(out.head_values()) == [0, 1]   # 9 has no match
        assert list(out.tail_values()) == ["c", "a"]

    def test_dense_right_with_offset(self):
        l = bat([0, 1], [11, 10])
        r = dense_bat([5.0, 6.0], base=10)
        out = algebra_join(None, l, r)
        assert list(out.tail_values()) == [6.0, 5.0]

    def test_many_to_many(self):
        l = bat([0, 1], [7, 7])
        r = bat([7, 7], ["x", "y"])
        out = algebra_join(None, l, r)
        assert len(out) == 4

    def test_no_matches(self):
        l = bat([0], [1])
        r = bat([2], ["a"])
        assert len(algebra_join(None, l, r)) == 0

    def test_sources_union(self):
        l = BAT(np.array([0]), np.array([0]), owned_nbytes=0,
                sources=frozenset({("a", "x", 0)}))
        r = BAT(np.array([0]), np.array([1]), owned_nbytes=0,
                sources=frozenset({("b", "y", 0)}))
        out = algebra_join(None, l, r)
        assert out.sources == {("a", "x", 0), ("b", "y", 0)}


class TestLeftFetchJoin:
    def test_positional_fetch(self):
        l = bat([0, 1, 2], [2, 1, 0])
        r = dense_bat([10, 20, 30])
        out = algebra_leftfetchjoin(None, l, r)
        assert list(out.tail_values()) == [30, 20, 10]

    def test_out_of_range_rejected(self):
        l = bat([0], [5])
        r = dense_bat([1, 2])
        with pytest.raises(InterpreterError):
            algebra_leftfetchjoin(None, l, r)

    def test_falls_back_to_join_for_non_dense(self):
        l = bat([0, 1], [7, 8])
        r = bat([8, 7], ["x", "y"])
        out = algebra_leftfetchjoin(None, l, r)
        assert list(out.tail_values()) == ["y", "x"]


class TestSemijoinFamily:
    def test_semijoin_keeps_matching_heads(self):
        l = bat([1, 2, 3], ["a", "b", "c"])
        r = bat([2, 3, 9], [0, 0, 0])
        out = algebra_semijoin(None, l, r)
        assert list(out.head_values()) == [2, 3]
        assert out.subset_chain[-1] == l.token

    def test_semijoin_shares_owned_sorted_heads(self):
        l = dense_bat(np.arange(10) * 1.5)
        rh = np.array([2, 5, 7], dtype=np.int64)
        out = algebra_semijoin(None, l, bat(rh, [0, 0, 0]))
        assert out.head is rh                  # one array, two BATs
        assert out.owned_nbytes == rh.nbytes + out.tail.nbytes
        assert list(out.tail_values()) == [3.0, 7.5, 10.5]
        # A view is not shared: it would pin its whole base buffer.
        view = np.arange(20, dtype=np.int64)[2:5]
        out = algebra_semijoin(None, l, bat(view, [0, 0, 0]))
        assert out.head is not view and out.head.base is None
        assert list(out.head_values()) == [2, 3, 4]

    def test_kdifference_is_complement(self):
        l = bat([1, 2, 3], ["a", "b", "c"])
        r = bat([2], [0])
        semi = algebra_semijoin(None, l, r)
        anti = algebra_kdifference(None, l, r)
        assert len(semi) + len(anti) == len(l)
        assert list(anti.head_values()) == [1, 3]

    def test_kunique_first_occurrence(self):
        l = bat([5, 5, 6, 5], ["a", "b", "c", "d"])
        out = algebra_kunique(None, l)
        assert list(out.head_values()) == [5, 6]
        assert list(out.tail_values()) == ["a", "c"]


@given(
    lv=st.lists(st.integers(min_value=0, max_value=8), max_size=40),
    rv=st.lists(st.integers(min_value=0, max_value=8), max_size=40),
)
@settings(max_examples=60)
def test_join_matches_bruteforce(lv, rv):
    l = bat(np.arange(len(lv)), np.asarray(lv, dtype=np.int64))
    r = bat(np.asarray(rv, dtype=np.int64), np.arange(len(rv)) * 10)
    out = algebra_join(None, l, r)
    expected = sorted(
        (i, j * 10)
        for i, x in enumerate(lv)
        for j, y in enumerate(rv)
        if x == y
    )
    got = sorted(zip(out.head_values().tolist(), out.tail_values().tolist()))
    assert got == expected


@given(
    lh=st.lists(st.integers(min_value=0, max_value=10), max_size=40),
    rh=st.lists(st.integers(min_value=0, max_value=10), max_size=40),
)
@settings(max_examples=60)
def test_semijoin_plus_kdifference_partition(lh, rh):
    l = bat(np.asarray(lh, dtype=np.int64), np.arange(len(lh)))
    r = bat(np.asarray(rh, dtype=np.int64), np.arange(len(rh)))
    semi = algebra_semijoin(None, l, r)
    anti = algebra_kdifference(None, l, r)
    assert len(semi) + len(anti) == len(l)
    rset = set(rh)
    assert all(h in rset for h in semi.head_values())
    assert all(h not in rset for h in anti.head_values())


@given(
    lset=st.sets(st.integers(min_value=0, max_value=30), max_size=25),
    rset=st.sets(st.integers(min_value=0, max_value=40), max_size=25),
    dense=st.booleans(),
)
@settings(max_examples=80)
def test_semijoin_sorted_heads_match_isin(lset, rset, dense):
    # Sorted unique heads may share R's head array; the np.isin mask over
    # L's heads is the reference the result must equal, dtypes included.
    if dense:
        l = dense_bat(np.arange(31) * 10, base=0)
    else:
        lh = np.array(sorted(lset), dtype=np.int64)
        l = bat(lh, lh * 10)
    r = bat(np.array(sorted(rset), dtype=np.int64), np.zeros(len(rset)))
    out = algebra_semijoin(None, l, r)
    mask = np.isin(l.head_values(), r.head_values())
    heads, tails = l.head_values()[mask], l.tail_values()[mask]
    assert out.head_values().dtype == heads.dtype
    assert out.head_values().tolist() == heads.tolist()
    assert out.tail_values().dtype == tails.dtype
    assert out.tail_values().tolist() == tails.tolist()


# ---------------------------------------------------------------------------
# The positional path over a dense-headed left operand equals np.isin
# ---------------------------------------------------------------------------
#: R head arrays: unsorted, duplicated, out of L's range or empty, in
#: every integer width an oid can arrive in — plus float oids, which
#: take the np.isin fallback, and dense (void) heads.
_INT_OIDS = st.tuples(
    st.lists(st.integers(min_value=-5, max_value=70), max_size=40),
    st.sampled_from(["i8", "i4", "i1", "u1", "u2", "u4", "u8"]),
).map(lambda t: np.asarray([v for v in t[0] if t[1][0] == "i" or v >= 0],
                           dtype=t[1]))
_SORTED_OIDS = st.sets(st.integers(min_value=0, max_value=70),
                       max_size=40).map(lambda s: np.array(sorted(s),
                                                           dtype=np.int64))
_FLOAT_OIDS = st.lists(st.integers(min_value=-5, max_value=70),
                       max_size=40).map(lambda v: np.asarray(v, np.float64))
_DENSE_OIDS = st.tuples(st.integers(min_value=-5, max_value=70),
                        st.integers(min_value=0, max_value=30)
                        ).map(lambda t: Dense(*t))


@st.composite
def _dense_left(draw):
    """A dense-headed L, hseqbase often not 0, with its own lineage."""
    base = draw(st.integers(min_value=0, max_value=40))
    n = draw(st.integers(min_value=0, max_value=40))
    tail = draw(st.sampled_from([
        np.arange(n) * 1.5, np.arange(n).astype("U3")]))
    return BAT(Dense(base, n), tail, owned_nbytes=0,
               subset_chain=draw(st.sampled_from([(), (3, 4)])),
               tail_sorted=draw(st.booleans()))


def _assert_subset(out, l, mask):
    """*out* is ``l``'s rows under *mask*, recorded as boolean-mask
    indexing records them."""
    ref = BAT.materialized(l.head_values()[mask], l.tail_values()[mask],
                           subset_parent=l, tail_sorted=l.tail_sorted)
    for got, want in ((out.head, ref.head), (out.tail, ref.tail)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert out.tail_sorted == ref.tail_sorted
    assert out.subset_chain == ref.subset_chain
    assert out.owned_nbytes == ref.owned_nbytes


@given(l=_dense_left(),
       rh=st.one_of(_INT_OIDS, _SORTED_OIDS, _FLOAT_OIDS, _DENSE_OIDS))
@settings(max_examples=200)
def test_dense_semijoin_and_kdifference_equal_isin(l, rh):
    r = BAT(rh, np.zeros(len(rh)), owned_nbytes=0)
    found = np.isin(l.head_values(), r.head_values())
    semi = algebra_semijoin(None, l, r)
    _assert_subset(semi, l, found)
    _assert_subset(algebra_kdifference(None, l, r), l, ~found)
    # R's own head array is the answer's head exactly when it owns its
    # buffer, is an oid array and every one of its oids names a row of
    # L once, in order; no answer pins another array's buffer.
    own = isinstance(rh, np.ndarray) and rh.base is None \
        and rh.dtype == np.int64 and len(semi) == len(rh) \
        and bool(np.all(rh[1:] > rh[:-1]))
    assert (semi.head is rh) == own
    assert semi.head.base is None


def test_dense_paths_never_expand_a_dense_head(monkeypatch):
    """Over a persistent (void-headed) L, semijoin and kdifference cost
    O(|R|) and O(|L|) array work: L's head is never materialised."""
    l = BAT.persistent("t.x", np.arange(100) * 2.0, sources=frozenset({"t"}),
                       hseqbase=10)
    r = bat(np.array([99, 12, 130, 12, 50], dtype=np.int64), np.zeros(5))

    def no_expansion(self):
        raise AssertionError("a dense head was expanded")

    monkeypatch.setattr(Dense, "materialize", no_expansion)
    semi = algebra_semijoin(None, l, r)
    assert semi.head.tolist() == [12, 50, 99]
    assert semi.tail.tolist() == [4.0, 80.0, 178.0]
    anti = algebra_kdifference(None, l, r)
    assert len(anti) == 97 and 12 not in anti.head.tolist()
