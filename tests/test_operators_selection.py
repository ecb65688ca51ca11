"""Selection operator tests, including hypothesis equivalence vs numpy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BatTypeError
from repro.mal.operators.selection import (
    algebra_inselect,
    algebra_likeselect,
    algebra_notlikeselect,
    algebra_select,
    algebra_selecttrue,
    algebra_uselect,
    like_mask,
    like_to_regex,
)
from repro.storage.bat import BAT, Dense


def make_bat(values, sorted_tail=False):
    arr = np.asarray(values)
    return BAT(Dense(0, len(arr)), arr, owned_nbytes=0,
               tail_sorted=sorted_tail)


class TestRangeSelect:
    def test_inclusive_range(self):
        bat = make_bat([1, 5, 3, 7, 5])
        out = algebra_select(None, bat, 3, 5, True, True)
        assert sorted(out.tail_values()) == [3, 5, 5]

    def test_exclusive_bounds(self):
        bat = make_bat([1, 2, 3, 4, 5])
        out = algebra_select(None, bat, 2, 4, False, False)
        assert list(out.tail_values()) == [3]

    def test_open_bounds(self):
        bat = make_bat([1, 2, 3])
        assert len(algebra_select(None, bat, None, None, True, True)) == 3
        assert len(algebra_select(None, bat, 2, None, True, True)) == 2
        assert len(algebra_select(None, bat, None, 2, True, False)) == 1

    def test_head_oids_preserved(self):
        bat = make_bat([10, 20, 30])
        out = algebra_select(None, bat, 20, None, True, True)
        assert list(out.head_values()) == [1, 2]

    def test_sorted_path_is_view(self):
        bat = make_bat([1, 2, 3, 4, 5], sorted_tail=True)
        out = algebra_select(None, bat, 2, 4, True, True)
        assert out.owned_nbytes == 0
        assert list(out.tail_values()) == [2, 3, 4]
        assert list(out.head_values()) == [1, 2, 3]

    def test_sorted_and_unsorted_agree(self):
        values = np.sort(np.random.default_rng(3).integers(0, 50, 100))
        a = algebra_select(None, make_bat(values, True), 10, 30, True, False)
        b = algebra_select(None, make_bat(values, False), 10, 30, True, False)
        assert np.array_equal(a.tail_values(), b.tail_values())
        assert np.array_equal(a.head_values(), b.head_values())

    def test_subset_lineage_set(self):
        bat = make_bat([1, 2, 3])
        out = algebra_select(None, bat, 1, 2, True, True)
        assert out.subset_chain[-1] == bat.token


class TestOtherSelects:
    def test_uselect(self):
        bat = make_bat(["a", "b", "a"])
        out = algebra_uselect(None, bat, "a")
        assert list(out.head_values()) == [0, 2]

    def test_inselect(self):
        bat = make_bat([1, 2, 3, 4])
        out = algebra_inselect(None, bat, (2, 4))
        assert list(out.tail_values()) == [2, 4]

    def test_selecttrue(self):
        bat = make_bat([True, False, True])
        out = algebra_selecttrue(None, bat)
        assert list(out.head_values()) == [0, 2]


class TestLike:
    @pytest.mark.parametrize("pattern,matches", [
        ("PROMO%", ["PROMO X", "PROMOTION"]),
        ("%STEEL", ["HOT STEEL"]),
        ("%spec%", ["a special b"]),
        ("exact", ["exact"]),
        ("a_c", ["abc", "axc"]),
    ])
    def test_patterns(self, pattern, matches):
        corpus = ["PROMO X", "PROMOTION", "HOT STEEL", "a special b",
                  "exact", "abc", "axc", "nothing"]
        bat = make_bat(np.array(corpus))
        out = algebra_likeselect(None, bat, pattern)
        assert sorted(out.tail_values()) == sorted(matches)

    def test_not_like_is_complement(self):
        corpus = np.array(["PROMO A", "OTHER", "PROMO B"])
        bat = make_bat(corpus)
        pos = algebra_likeselect(None, bat, "PROMO%")
        neg = algebra_notlikeselect(None, bat, "PROMO%")
        assert len(pos) + len(neg) == len(corpus)

    def test_double_wildcard_pattern(self):
        corpus = np.array(["x special y requests z", "special", "requests"])
        out = algebra_likeselect(None, make_bat(corpus),
                                 "%special%requests%")
        assert list(out.tail_values()) == ["x special y requests z"]

    def test_like_on_numbers_rejected(self):
        with pytest.raises(BatTypeError):
            like_mask(np.arange(3), "a%")

    def test_regex_escaping(self):
        rx = like_to_regex("a.b%")
        assert rx.match("a.bXX")
        assert not rx.match("aXbXX")


@given(
    values=st.lists(st.integers(min_value=-100, max_value=100),
                    max_size=200),
    lo=st.integers(min_value=-100, max_value=100),
    width=st.integers(min_value=0, max_value=100),
    lo_incl=st.booleans(),
    hi_incl=st.booleans(),
)
@settings(max_examples=60)
def test_select_matches_numpy(values, lo, width, lo_incl, hi_incl):
    arr = np.asarray(values, dtype=np.int64)
    hi = lo + width
    out = algebra_select(None, make_bat(arr), lo, hi, lo_incl, hi_incl)
    mask = (arr >= lo) if lo_incl else (arr > lo)
    mask &= (arr <= hi) if hi_incl else (arr < hi)
    assert np.array_equal(out.tail_values(), arr[mask])
    assert np.array_equal(out.head_values(), np.nonzero(mask)[0])


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=100))
@settings(max_examples=40)
def test_sorted_select_equals_scan_select(values):
    arr = np.sort(np.asarray(values, dtype=np.int64))
    sorted_out = algebra_select(None, make_bat(arr, True), 5, 20, True, True)
    scan_out = algebra_select(None, make_bat(arr, False), 5, 20, True, True)
    assert np.array_equal(sorted_out.tail_values(), scan_out.tail_values())
