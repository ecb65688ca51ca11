"""Recycler run-time integration tests (Algorithm 1 behaviour)."""

import dataclasses

import numpy as np
import pytest

from repro import (
    BenefitEviction,
    CreditAdmission,
    Database,
    LruEviction,
)
from repro.mal.operators import OPERATORS


def make_db(**kwargs):
    db = Database(**kwargs)
    rng = np.random.default_rng(8)
    db.create_table(
        "t", {"v": "float64", "g": "int64"},
        {"v": rng.random(20_000) * 100, "g": rng.integers(0, 50, 20_000)},
    )
    return db


def count_template(db, name="q"):
    q = db.builder(name)
    lo, hi = q.param("lo"), q.param("hi")
    q.scan("t")
    q.filter_range("t", "v", lo=lo, hi=hi)
    q.select_scalar("n", q.agg_scalar("count"))
    return db.register_template(q.build())


def group_template(db, name="g"):
    q = db.builder(name)
    lo = q.param("lo")
    q.scan("t")
    q.filter_range("t", "v", lo=lo)
    keys = q.groupby([q.col("t", "g")])
    q.select([("g", keys[0]), ("n", q.agg_count())],
             order_by=[(keys[0], True)])
    return db.register_template(q.build())


class TestExactMatching:
    def test_repeat_invocation_full_hits(self):
        db = make_db()
        count_template(db)
        db.run_template("q", {"lo": 10.0, "hi": 50.0})
        r = db.run_template("q", {"lo": 10.0, "hi": 50.0})
        assert r.stats.exact_hits == r.stats.n_marked
        assert r.stats.global_hits == r.stats.exact_hits

    def test_different_template_shares_binds(self):
        db = make_db()
        count_template(db, "a")
        count_template(db, "b")
        db.run_template("a", {"lo": 1.0, "hi": 2.0})
        r = db.run_template("b", {"lo": 5.0, "hi": 6.0})
        assert r.stats.hits >= 1  # at least the shared bind

    def test_results_identical_with_and_without_recycler(self):
        db = make_db()
        naive = Database(recycle=False)
        rng = np.random.default_rng(8)
        naive.create_table(
            "t", {"v": "float64", "g": "int64"},
            {"v": rng.random(20_000) * 100,
             "g": rng.integers(0, 50, 20_000)},
        )
        group_template(db)
        group_template(naive)
        params_list = [{"lo": x} for x in (10.0, 30.0, 10.0, 20.0, 30.0)]
        for params in params_list:
            a = db.run_template("g", params).value
            b = naive.run_template("g", params).value
            assert a.rows() == b.rows()

    def test_saved_time_accumulates(self):
        db = make_db()
        count_template(db)
        db.run_template("q", {"lo": 0.0, "hi": 99.0})
        r = db.run_template("q", {"lo": 0.0, "hi": 99.0})
        assert r.stats.saved_time > 0
        assert db.recycler.totals.saved_time >= r.stats.saved_time


    def test_totals_include_an_invocation_that_raised(self, monkeypatch):
        """The fold into the lifetime totals sits in the interpreter's
        ``finally``: a plan that dies after its hits still counts them."""
        db = make_db()
        program = count_template(db)
        params = {"lo": 10.0, "hi": 50.0}
        db.run_template("q", params)
        totals = db.recycler.totals
        hits_before = totals.exact_hits

        def boom(*_args):
            raise RuntimeError("operator failed")

        last = program.instrs[-1].opname
        monkeypatch.setitem(OPERATORS, last,
                            dataclasses.replace(OPERATORS[last], fn=boom))
        with pytest.raises(RuntimeError, match="operator failed"):
            db.run_template("q", params)
        assert totals.exact_hits > hits_before
        assert totals.invocations == 2
        assert not db.recycler._active        # and it was retired
        db.recycler.check_invariants()


class TestResourceLimits:
    def test_entry_limit_enforced(self):
        db = make_db(max_entries=6, eviction=LruEviction())
        count_template(db)
        for i in range(10):
            db.run_template("q", {"lo": float(i), "hi": float(i + 30)})
        assert db.pool_entries <= 6
        assert db.recycler.totals.evictions > 0

    def test_memory_limit_enforced(self):
        db = make_db(max_bytes=300_000, eviction=BenefitEviction())
        count_template(db)
        for i in range(10):
            db.run_template("q", {"lo": float(i), "hi": float(i + 40)})
        assert db.pool_bytes <= 300_000

    def test_oversized_result_never_admitted(self):
        db = make_db(max_bytes=1_000)
        count_template(db)
        db.run_template("q", {"lo": 0.0, "hi": 100.0})
        assert db.pool_bytes <= 1_000

    def test_eviction_respects_leaves(self):
        db = make_db(max_entries=4)
        group_template(db)
        for i in range(8):
            db.run_template("g", {"lo": float(i * 5)})
        # Invariant: no pooled entry references an evicted parent.
        pool = db.recycler.pool
        tokens = {e.result_token for e in pool.entries()}
        for e in pool.entries():
            for t in e.arg_tokens:
                if t in pool.by_token:
                    assert t in tokens

    def test_results_correct_under_pressure(self):
        db = make_db(max_entries=5, eviction=LruEviction(),
                     admission=CreditAdmission(2))
        count_template(db)
        v = db.catalog.table("t").column_array("v")
        for i in range(12):
            lo, hi = float(i), float(i + 25)
            r = db.run_template("q", {"lo": lo, "hi": hi})
            assert r.value.scalar() == int(((v >= lo) & (v <= hi)).sum())


class TestCreditIntegration:
    def test_unreused_instructions_stop_claiming_pool(self):
        db = make_db(admission=CreditAdmission(credits=2))
        count_template(db)
        # Different params each time: no reuse, credits exhaust.
        for i in range(6):
            db.run_template("q", {"lo": float(i), "hi": float(i) + 0.5})
        r = db.run_template("q", {"lo": 50.0, "hi": 50.5})
        assert r.stats.admissions == 0

    def test_reused_instructions_keep_credits(self):
        db = make_db(admission=CreditAdmission(credits=2))
        count_template(db)
        for _ in range(6):
            r = db.run_template("q", {"lo": 10.0, "hi": 20.0})
        assert r.stats.exact_hits == r.stats.n_marked


class TestReset:
    def test_reset_empties_pool(self):
        db = make_db()
        count_template(db)
        db.run_template("q", {"lo": 1.0, "hi": 2.0})
        assert db.pool_entries > 0
        removed = db.reset_recycler()
        assert removed > 0
        assert db.pool_entries == 0
        assert db.pool_bytes == 0

    def test_cold_after_reset(self):
        db = make_db()
        count_template(db)
        db.run_template("q", {"lo": 1.0, "hi": 2.0})
        db.reset_recycler()
        r = db.run_template("q", {"lo": 1.0, "hi": 2.0})
        assert r.stats.hits == 0


class TestPoolReport:
    def test_report_kinds_and_totals(self):
        db = make_db()
        group_template(db)
        db.run_template("g", {"lo": 10.0})
        db.run_template("g", {"lo": 10.0})
        report = db.recycler_report()
        kinds = {row.kind for row in report.rows}
        assert "bind" in kinds
        total = report.total
        assert total.entries == db.pool_entries
        assert total.nbytes == db.pool_bytes
        assert "lines" in report.render()
