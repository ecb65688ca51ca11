"""Selection operator tests, including hypothesis equivalence vs numpy."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import BatTypeError
from repro.mal.operators.selection import (
    _subset,
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


# ---------------------------------------------------------------------------
# Positional subsets equal boolean-mask indexing
# ---------------------------------------------------------------------------
@st.composite
def _masked_bat(draw):
    """A BAT with a dense head (hseqbase often not 0) or a materialised
    one, a tail of some dtype, its own lineage, and a row mask."""
    n = draw(st.integers(min_value=0, max_value=40))
    if draw(st.booleans()):
        head = Dense(draw(st.integers(min_value=0, max_value=1000)), n)
    else:
        head = np.asarray(draw(st.lists(
            st.integers(min_value=0, max_value=500), min_size=n,
            max_size=n)), dtype=np.int64)
    tail = draw(st.sampled_from([
        np.arange(n) * 0.5, np.arange(n).astype("U4"),
        np.arange(n) % 3 == 0,
        np.datetime64("1998-01-01") + np.arange(n).astype("m8[D]")]))
    bat = BAT(head, tail, owned_nbytes=0,
              subset_chain=draw(st.sampled_from([(), (7,)])),
              tail_sorted=draw(st.booleans()))
    mask = np.asarray(draw(st.lists(st.booleans(), min_size=n,
                                    max_size=n)), dtype=bool)
    return bat, mask


@given(_masked_bat())
@example((BAT(np.arange(40, dtype=np.int64) * 3, np.arange(40) * 0.5,
              owned_nbytes=0), np.arange(40) != 7))   # 39 of 40 qualify
@example((BAT(Dense(5, 40), np.arange(40).astype("U4"), owned_nbytes=0),
          np.arange(40) != 7))
@settings(max_examples=150)
def test_subset_equals_mask_indexing(case):
    bat, mask = case
    out = _subset(bat, mask)
    ref = BAT.materialized(bat.head_values()[mask], bat.tail_values()[mask],
                           sources=bat.sources, subset_parent=bat,
                           tail_sorted=bat.tail_sorted)
    for got, want in ((out.head, ref.head), (out.tail, ref.tail)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert out.tail_sorted == ref.tail_sorted
    assert out.subset_chain == ref.subset_chain
    assert out.owned_nbytes == ref.owned_nbytes


def test_mask_selections_never_expand_a_dense_head(monkeypatch):
    """Over a persistent (void-headed) column a mask selection fetches
    heads by position: the dense head is never materialised."""
    col = BAT.persistent("t.x", np.array([4, 1, 4, 2, 4]),
                         sources=frozenset({"t"}), hseqbase=100)

    def no_expansion(self):
        raise AssertionError("a dense head was expanded")

    monkeypatch.setattr(Dense, "materialize", no_expansion)
    out = algebra_uselect(None, col, 4)
    assert out.head.tolist() == [100, 102, 104]
    assert out.tail.tolist() == [4, 4, 4]
    assert algebra_select(None, col, 2, 3).head.tolist() == [103]
