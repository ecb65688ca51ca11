"""Recycle pool tests: signatures, dependency graph, leaves, removal."""

import numpy as np
import pytest

from repro.core.pool import (
    RecycleEntry,
    RecyclePool,
    arg_identity,
    make_signature,
)
from repro.errors import RecyclerError
from repro.storage.bat import BAT, Dense


def bat(n=4, sources=frozenset()):
    return BAT.materialized(Dense(0, n), np.arange(n), sources=sources)


def entry(sig, value, arg_tokens=(), cost=1.0, nbytes=None, key=("t", 0)):
    return RecycleEntry(
        sig=sig, opname=sig[0], kind="select", value=value, cost=cost,
        nbytes=value.owned_nbytes if nbytes is None else nbytes,
        tuples=len(value), template_key=key, invocation_id=1,
        admitted_at=0.0, last_used=0.0, arg_tokens=tuple(arg_tokens),
    )


class TestSignatures:
    def test_bat_identity_is_token(self):
        b = bat()
        assert arg_identity(b) == ("b", b.token)

    def test_scalar_identity_is_value(self):
        assert arg_identity(5) == ("c", 5)
        assert arg_identity("x") == ("c", "x")

    def test_token_never_collides_with_const(self):
        b = bat()
        assert arg_identity(b) != arg_identity(b.token)

    def test_signature_shape(self):
        b = bat()
        sig = make_signature("algebra.select", (b, 1, 2))
        assert sig == ("algebra.select", ("b", b.token), ("c", 1), ("c", 2))


class TestPoolBasics:
    def test_add_lookup_remove(self):
        pool = RecyclePool()
        b = bat()
        e = entry(("op", ("c", 1)), b)
        pool.add(e)
        assert pool.lookup(("op", ("c", 1))) is e
        assert pool.total_bytes == b.owned_nbytes
        pool.remove(e)
        assert len(pool) == 0
        assert pool.total_bytes == 0

    def test_duplicate_signature_rejected(self):
        pool = RecyclePool()
        pool.add(entry(("op", ("c", 1)), bat()))
        with pytest.raises(RecyclerError):
            pool.add(entry(("op", ("c", 1)), bat()))

    def test_entry_for_token(self):
        pool = RecyclePool()
        b = bat()
        e = entry(("op",), b)
        pool.add(e)
        assert pool.entry_for_token(b.token) is e

    def test_candidates_indexed_by_first_bat_arg(self):
        pool = RecyclePool()
        base = bat()
        e = entry(("algebra.select", ("b", base.token), ("c", 1)), bat())
        pool.add(e)
        assert pool.candidates("algebra.select", base.token) == [e]
        assert pool.candidates("algebra.select", 99999) == []


class TestDependencies:
    def make_chain(self):
        """parent <- child (child's arg is parent's result)."""
        pool = RecyclePool()
        pb = bat()
        parent = entry(("p",), pb)
        child = entry(("c", ("b", pb.token)), bat(), arg_tokens=(pb.token,))
        pool.add(parent)
        pool.add(child)
        return pool, parent, child

    def test_dependent_counting(self):
        pool, parent, child = self.make_chain()
        assert parent.dependents == 1
        assert child.dependents == 0

    def test_leaves_excludes_parents(self):
        pool, parent, child = self.make_chain()
        assert pool.leaves() == [child]

    def test_protected_leaves_excluded(self):
        pool, parent, child = self.make_chain()
        assert pool.leaves({child.sig}) == []

    def test_nonleaf_removal_rejected(self):
        pool, parent, child = self.make_chain()
        with pytest.raises(RecyclerError):
            pool.remove(parent)

    def test_removing_child_releases_parent(self):
        pool, parent, child = self.make_chain()
        pool.remove(child)
        assert parent.dependents == 0
        assert pool.leaves() == [parent]

    def test_remove_set_handles_internal_dependencies(self):
        pool, parent, child = self.make_chain()
        removed = pool.remove_set([parent, child])
        assert removed == 2
        assert len(pool) == 0

    def test_same_operand_twice_is_one_dependency(self):
        # op(x, x): the consumer index holds the entry once, so the
        # producer's count (the size of that set) must too.
        pool = RecyclePool()
        pb = bat()
        parent = entry(("p",), pb)
        both = entry(("c", ("b", pb.token), ("b", pb.token)), bat(),
                     arg_tokens=(pb.token, pb.token))
        pool.add(parent)
        pool.add(both)
        assert parent.dependents == 1
        assert pool.dependent_thread(parent) == [both]
        pool.check_invariants()
        pool.remove(both)
        assert parent.dependents == 0 and pool.leaves() == [parent]
        pool.check_invariants()

    def test_dependent_thread_is_transitive(self):
        pool, parent, child = self.make_chain()
        cb = child.value
        grandchild = entry(("g", ("b", cb.token)), bat(),
                           arg_tokens=(cb.token,))
        pool.add(grandchild)
        assert pool.dependent_thread(parent) == [child, grandchild]
        assert pool.dependent_thread(child) == [grandchild]
        assert pool.dependent_thread(grandchild) == []

    def test_clear_resets_everything(self):
        pool, parent, child = self.make_chain()
        removed = pool.clear()
        assert len(removed) == 2
        assert pool.total_bytes == 0
        assert parent.dependents == 0


class TestStaleEntries:
    def test_matches_on_table_column(self):
        pool = RecyclePool()
        src = frozenset({("orders", "o_orderdate", 0)})
        e1 = entry(("a",), bat(sources=src))
        e2 = entry(("b",), bat(sources=frozenset({("nation", "n_name", 0)})))
        pool.add(e1)
        pool.add(e2)
        stale = pool.stale_entries({("orders", "o_orderdate")})
        assert stale == [e1]

    def test_version_ignored_in_staleness(self):
        pool = RecyclePool()
        e = entry(("a",), bat(sources=frozenset({("t", "c", 7)})))
        pool.add(e)
        assert pool.stale_entries({("t", "c")}) == [e]
