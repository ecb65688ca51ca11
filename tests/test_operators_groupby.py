"""Grouping and aggregation operator tests (unit + hypothesis vs numpy)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import InterpreterError
from repro.mal.operators.groupby import (
    aggr_avg,
    aggr_avg1,
    aggr_count,
    aggr_count1,
    aggr_countdistinct,
    aggr_countdistinct1,
    aggr_max,
    aggr_max1,
    aggr_min,
    aggr_min1,
    aggr_sum,
    aggr_sum1,
    group_derive,
    group_extents,
    group_new,
    rank,
)
from repro.storage.bat import BAT, Dense


def dense_bat(values):
    arr = np.asarray(values)
    return BAT(Dense(0, len(arr)), arr, owned_nbytes=0)


class TestGrouping:
    def test_group_new_assigns_dense_ids(self):
        grp = group_new(None, dense_bat(["b", "a", "b", "c"]))
        ids = grp.tail_values()
        assert ids.max() == 2
        assert ids[0] == ids[2]
        assert len(set(ids.tolist())) == 3

    def test_group_derive_refines(self):
        g1 = group_new(None, dense_bat(["x", "x", "y", "y"]))
        g2 = group_derive(None, g1, dense_bat([1, 2, 1, 1]))
        ids = g2.tail_values()
        assert ids[2] == ids[3]
        assert len(set(ids.tolist())) == 3

    def test_group_derive_misaligned(self):
        g1 = group_new(None, dense_bat([1, 2]))
        with pytest.raises(InterpreterError):
            group_derive(None, g1, dense_bat([1, 2, 3]))

    def test_extents_first_occurrence(self):
        grp = group_new(None, dense_bat(["b", "a", "b"]))
        ext = group_extents(None, grp)
        reps = dict(zip(grp.tail_values().tolist(), [0, 1, 0]))
        for gid, pos in zip(ext.head_values(), ext.tail_values()):
            assert reps[gid] == pos


class TestGroupedAggregates:
    def setup_method(self):
        self.vals = dense_bat([1.0, 2.0, 3.0, 4.0, 5.0])
        self.grp = group_new(None, dense_bat([0, 1, 0, 1, 0]))

    def agg_by_group(self):
        ids = self.grp.tail_values()
        return {g: [v for v, i in zip([1., 2., 3., 4., 5.], ids) if i == g]
                for g in set(ids.tolist())}

    def test_sum(self):
        out = aggr_sum(None, self.vals, self.grp).tail_values()
        for g, vals in self.agg_by_group().items():
            assert out[g] == sum(vals)

    def test_count(self):
        out = aggr_count(None, self.grp).tail_values()
        for g, vals in self.agg_by_group().items():
            assert out[g] == len(vals)

    def test_avg(self):
        out = aggr_avg(None, self.vals, self.grp).tail_values()
        for g, vals in self.agg_by_group().items():
            assert out[g] == pytest.approx(sum(vals) / len(vals))

    def test_min_max(self):
        mins = aggr_min(None, self.vals, self.grp).tail_values()
        maxs = aggr_max(None, self.vals, self.grp).tail_values()
        for g, vals in self.agg_by_group().items():
            assert mins[g] == min(vals)
            assert maxs[g] == max(vals)

    def test_min_max_strings(self):
        vals = dense_bat(["pear", "apple", "fig", "kiwi"])
        grp = group_new(None, dense_bat([0, 0, 1, 1]))
        mins = aggr_min(None, vals, grp).tail_values()
        maxs = aggr_max(None, vals, grp).tail_values()
        assert set(mins.tolist()) == {"apple", "fig"}
        assert set(maxs.tolist()) == {"pear", "kiwi"}

    def test_countdistinct(self):
        vals = dense_bat([7, 7, 8, 7, 9])
        grp = group_new(None, dense_bat([0, 0, 0, 1, 1]))
        out = aggr_countdistinct(None, vals, grp).tail_values()
        assert sorted(out.tolist()) == [2, 2]

    def test_misaligned_rejected(self):
        with pytest.raises(InterpreterError):
            aggr_sum(None, dense_bat([1.0]), self.grp)

    def test_int_sum_stays_integer(self):
        vals = dense_bat(np.array([1, 2, 3], dtype=np.int64))
        grp = group_new(None, dense_bat([0, 0, 1]))
        out = aggr_sum(None, vals, grp)
        assert out.tail_values().dtype == np.int64


class TestScalarAggregates:
    def test_basic(self):
        b = dense_bat([4.0, 1.0, 3.0])
        assert aggr_count1(None, b) == 3
        assert aggr_sum1(None, b) == pytest.approx(8.0)
        assert aggr_avg1(None, b) == pytest.approx(8.0 / 3)
        assert aggr_min1(None, b) == 1.0
        assert aggr_max1(None, b) == 4.0
        assert aggr_countdistinct1(None, dense_bat([1, 1, 2])) == 2

    def test_empty_inputs_are_null(self):
        empty = dense_bat(np.empty(0, dtype=np.float64))
        assert aggr_count1(None, empty) == 0
        assert aggr_sum1(None, empty) is None
        assert aggr_avg1(None, empty) is None
        assert aggr_min1(None, empty) is None
        assert aggr_max1(None, empty) is None


@given(
    keys=st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                  max_size=80),
)
@settings(max_examples=50)
def test_grouped_sum_count_match_numpy(keys):
    rng = np.random.default_rng(0)
    vals = rng.random(len(keys))
    kb = dense_bat(np.asarray(keys, dtype=np.int64))
    vb = dense_bat(vals)
    grp = group_new(None, kb)
    sums = aggr_sum(None, vb, grp).tail_values()
    counts = aggr_count(None, grp).tail_values()
    ids = grp.tail_values()
    for g in range(ids.max() + 1):
        mask = ids == g
        assert sums[g] == pytest.approx(vals[mask].sum())
        assert counts[g] == mask.sum()


@given(
    k1=st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                max_size=60),
)
@settings(max_examples=50)
def test_derive_equals_pairwise_grouping(k1):
    rng = np.random.default_rng(1)
    k2 = rng.integers(0, 3, len(k1))
    g = group_derive(None, group_new(None, dense_bat(np.asarray(k1))),
                     dense_bat(k2))
    ids = g.tail_values()
    pair_to_id = {}
    for (a, b), gid in zip(zip(k1, k2.tolist()), ids.tolist()):
        if (a, b) in pair_to_id:
            assert pair_to_id[(a, b)] == gid
        else:
            pair_to_id[(a, b)] = gid
    assert len(set(pair_to_id.values())) == len(pair_to_id)


# ---------------------------------------------------------------------------
# The rank helper equals np.unique's inverse, whichever path it takes
# ---------------------------------------------------------------------------
_INT64_MIN = int(np.iinfo(np.int64).min)


@st.composite
def _rank_input(draw):
    """Values of every kind group ids are taken over: integers signed or
    unsigned with a narrow or a wide range, one-character and wider
    strings, datetimes with NaT, floats with NaN; empty included."""
    kind = draw(st.sampled_from(["int", "U1", "U10", "M8", "f8"]))
    size = dict(max_size=40)
    if kind == "int":
        dtype = np.dtype(draw(st.sampled_from(
            ["i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8"])))
        info = np.iinfo(dtype)
        lo = draw(st.integers(int(info.min), int(info.max)))
        width = draw(st.one_of(st.integers(0, 200),
                               st.just(int(info.max))))
        return np.asarray(draw(st.lists(st.integers(
            lo, min(lo + width, int(info.max))), **size)), dtype=dtype)
    if kind in ("U1", "U10"):
        return np.asarray(draw(st.lists(st.text(
            max_size=int(kind[1:])), **size)), dtype="<" + kind)
    if kind == "M8":
        # The int64 minimum is NaT; its neighbour is a real (far) date.
        day = draw(st.sampled_from([
            st.integers(-50, 50),
            st.one_of(st.integers(-50, 50), st.just(_INT64_MIN)),
            st.sampled_from([_INT64_MIN, _INT64_MIN + 1])]))
        return np.asarray(draw(st.lists(day, **size)),
                          dtype=np.int64).view("M8[D]")
    return np.asarray(draw(st.lists(st.one_of(
        st.floats(-3, 3), st.just(float("nan"))), **size)), dtype="f8")


@given(_rank_input())
@example(np.array([-100, 0, 50] * 14, dtype=np.int8))  # offsets past int8
@settings(max_examples=300)
def test_rank_equals_unique_inverse(values):
    want = np.unique(values, return_inverse=True)[1]
    got = rank(values)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@given(
    k1=st.lists(st.sampled_from("ARN"), max_size=60),
    k2=st.lists(st.sampled_from("FO"), max_size=60),
)
@settings(max_examples=50)
def test_one_char_group_ids_are_the_sorted_value_order(k1, k2):
    """q01's grouping (returnflag, linestatus): ids number the distinct
    pairs in sorted-value order, so group order and results are as a
    sort would give them."""
    n = min(len(k1), len(k2))
    a = np.asarray(k1[:n], dtype="<U1")
    b = np.asarray(k2[:n], dtype="<U1")
    ids = group_derive(None, group_new(None, dense_bat(a)),
                       dense_bat(b)).tail_values()
    pairs = sorted(set(zip(a.tolist(), b.tolist())))
    assert ids.tolist() == [pairs.index(p) for p in zip(a.tolist(),
                                                        b.tolist())]
