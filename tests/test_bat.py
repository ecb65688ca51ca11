"""Unit and property tests for the BAT storage layer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.bat import (
    BAT,
    Dense,
    column_nbytes,
    column_values,
)


class TestDense:
    def test_materialize(self):
        d = Dense(5, 4)
        assert list(d.materialize()) == [5, 6, 7, 8]

    def test_len_and_eq(self):
        assert len(Dense(0, 3)) == 3
        assert Dense(1, 2) == Dense(1, 2)
        assert Dense(1, 2) != Dense(2, 2)
        assert hash(Dense(1, 2)) == hash(Dense(1, 2))

    def test_negative_count_rejected(self):
        with pytest.raises(StorageError):
            Dense(0, -1)

    def test_zero_bytes(self):
        assert column_nbytes(Dense(0, 1000)) == 0


class TestBatConstruction:
    def test_length_mismatch_rejected(self):
        with pytest.raises(StorageError):
            BAT(Dense(0, 3), np.arange(4), owned_nbytes=0)

    def test_materialized_owns_bytes(self):
        tail = np.arange(10, dtype=np.int64)
        bat = BAT.materialized(Dense(0, 10), tail)
        assert bat.owned_nbytes == tail.nbytes

    def test_view_owns_nothing(self):
        bat = BAT.view(Dense(0, 10), np.arange(10))
        assert bat.owned_nbytes == 0

    def test_persistent_owns_nothing(self):
        bat = BAT.persistent("t.c", np.arange(5), sources=frozenset())
        assert bat.owned_nbytes == 0
        assert bat.persistent_name == "t.c"

    def test_tokens_are_unique(self):
        a = BAT.from_tail([1, 2, 3])
        b = BAT.from_tail([1, 2, 3])
        assert a.token != b.token

    def test_head_values_from_dense(self):
        bat = BAT.from_tail([7, 8], hseqbase=3)
        assert list(bat.head_values()) == [3, 4]
        assert bat.head_dense
        assert bat.hseqbase == 3


class TestViewpointOperators:
    def setup_method(self):
        self.bat = BAT.materialized(
            np.array([10, 11, 12]), np.array([5.0, 6.0, 7.0])
        )

    def test_reverse_swaps(self):
        rev = self.bat.reverse()
        assert list(rev.head_values()) == [5.0, 6.0, 7.0]
        assert list(rev.tail_values()) == [10, 11, 12]
        assert rev.owned_nbytes == 0

    def test_reverse_shares_storage(self):
        rev = self.bat.reverse()
        assert rev.head is self.bat.tail
        assert rev.tail is self.bat.head

    def test_mirror(self):
        mir = self.bat.mirror()
        assert list(mir.tail_values()) == [10, 11, 12]
        assert mir.owned_nbytes == 0

    def test_mark_fresh_dense_tail(self):
        marked = self.bat.mark(100)
        assert list(marked.tail_values()) == [100, 101, 102]
        assert marked.owned_nbytes == 0

    def test_views_preserve_sources(self):
        src = frozenset({("t", "c", 0)})
        bat = BAT.materialized(Dense(0, 2), np.arange(2), sources=src)
        assert bat.reverse().sources == src
        assert bat.mirror().sources == src
        assert bat.mark().sources == src


class TestSubsetLineage:
    def test_subset_parent_recorded(self):
        base = BAT.from_tail(np.arange(10))
        child = BAT.materialized(Dense(0, 3), np.arange(3),
                                 subset_parent=base)
        assert child.subset_chain == (base.token,)
        assert child.row_subset_of(base.token)

    def test_chain_is_transitive(self):
        base = BAT.from_tail(np.arange(10))
        mid = BAT.materialized(Dense(0, 5), np.arange(5),
                               subset_parent=base)
        leaf = BAT.materialized(Dense(0, 2), np.arange(2),
                                subset_parent=mid)
        assert leaf.row_subset_of(mid.token)
        assert leaf.row_subset_of(base.token)

    def test_unrelated_token_not_subset(self):
        a = BAT.from_tail([1])
        b = BAT.from_tail([2])
        assert not a.row_subset_of(b.token)

    def test_subset_of_empty_operand_keeps_lineage(self):
        # An empty BAT is falsy by length; its subsets are still subsets.
        from repro.mal.operators.joins import algebra_semijoin
        from repro.mal.operators.selection import algebra_select

        empty = BAT.from_tail(np.empty(0, dtype=np.int64))
        sel = algebra_select(None, empty, 1, 5)
        assert sel.subset_chain == (empty.token,)
        semi = algebra_semijoin(None, empty, BAT.from_tail(np.arange(3)))
        assert semi.subset_chain == (empty.token,)
        child = BAT.materialized(Dense(0, 0), np.empty(0),
                                 subset_parent=empty)
        assert child.row_subset_of(empty.token)

    def test_views_carry_chain(self):
        base = BAT.from_tail(np.arange(4))
        child = BAT.materialized(Dense(0, 2), np.arange(2),
                                 subset_parent=base)
        assert child.reverse().row_subset_of(base.token)
        assert child.mark().row_subset_of(base.token)


@given(
    start=st.integers(min_value=-1000, max_value=1000),
    count=st.integers(min_value=0, max_value=500),
)
def test_dense_matches_arange(start, count):
    d = Dense(start, count)
    assert np.array_equal(
        column_values(d), np.arange(start, start + count, dtype=np.int64)
    )
    assert len(d) == count


@given(st.lists(st.integers(min_value=-2**31, max_value=2**31), max_size=64))
def test_reverse_is_involution(values):
    bat = BAT.from_tail(np.asarray(values, dtype=np.int64))
    double = bat.reverse().reverse()
    assert np.array_equal(double.head_values(), bat.head_values())
    assert np.array_equal(double.tail_values(), bat.tail_values())
