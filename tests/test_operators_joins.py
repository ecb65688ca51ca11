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
