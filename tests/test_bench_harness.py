"""Tests for the workload runner and report rendering."""

import dataclasses
import threading
from collections import Counter

import numpy as np
import pytest

import repro
from repro import Database, ExecutionStats
from repro.bench import (
    QueryRecord,
    RunResult,
    render_series,
    render_table,
    reused_entries,
    reused_memory,
    run_workload,
)
from repro.core.recycler import RecyclerTotals
from repro.workloads.tpch import MIXED_TEMPLATES, mixed_instances


#: Every summable field of the one counter record.
COUNTERS = [f.name for f in dataclasses.fields(ExecutionStats)
            if f.name != "template"]


#: The counters the recycler's lifetime totals keep too, same names.
SHARED = [f.name for f in dataclasses.fields(RecyclerTotals)
          if f.name in COUNTERS]


def counters(stats):
    return {name: getattr(stats, name) for name in COUNTERS}


def test_add_sums_every_counter():
    ones = ExecutionStats(template="q", **{n: 1 for n in COUNTERS})
    total = ExecutionStats().add(ones).add(ones)
    assert counters(total) == {n: 2 for n in COUNTERS}
    assert total.template == ""
    assert total.as_dict() == {**counters(total), "template": "",
                               "hits": total.hits}
    assert total.hits == 4 and total.hit_ratio == 2.0
    # The recycler's fold takes every counter the two records share.
    lifetime = RecyclerTotals()
    lifetime.add(ones)
    assert sorted(SHARED) == [
        "admissions", "demotions", "evictions", "exact_hits", "global_hits",
        "local_hits", "promoted_hits", "saved_time", "subsumed_hits"]
    assert dataclasses.asdict(lifetime) == {
        **dataclasses.asdict(RecyclerTotals()), **{n: 1 for n in SHARED}}


def record(template, seconds, hits, marked, **kw):
    return QueryRecord(0, "s", template, seconds,
                       ExecutionStats(exact_hits=hits, n_marked=marked), **kw)


class TestRunResult:
    def make(self):
        return RunResult(records=[
            record("a", 0.1, 2, 4, pool_bytes=100, pool_entries=1),
            record("b", 0.2, 4, 4, pool_bytes=200, pool_entries=2),
        ])

    def test_totals(self):
        b = self.make()
        assert b.total_seconds == pytest.approx(0.3)
        assert b.hits == 6
        assert b.potential == 8
        assert b.hit_ratio == pytest.approx(0.75)

    def test_cumulative_curve(self):
        b = self.make()
        assert b.cumulative_hit_curve() == [0.5, 0.75]

    def test_empty(self):
        assert RunResult().hit_ratio == 0.0

    def test_failed_records_count_for_nothing(self):
        b = self.make()
        b.records.append(QueryRecord(2, "s", "c", 0.0,
                                     error=ValueError("boom")))
        assert b.hits == 6 and b.potential == 8
        assert [r.index for r in b.errors] == [2]
        assert b.values() == [None, None, None]


class TestMixedWorkload:
    def test_composition(self):
        batch = mixed_instances(n_instances_each=3, seed=1, sf=0.01)
        assert len(batch) == 3 * len(MIXED_TEMPLATES)
        counts = Counter(name for name, _p in batch)
        assert all(counts[q] == 3 for q in MIXED_TEMPLATES)

    def test_deterministic(self):
        a = mixed_instances(n_instances_each=2, seed=9, sf=0.01)
        b = mixed_instances(n_instances_each=2, seed=9, sf=0.01)
        assert [n for n, _ in a] == [n for n, _ in b]

    def test_shuffled(self):
        batch = mixed_instances(n_instances_each=5, seed=1, sf=0.01)
        names = [n for n, _ in batch]
        assert names != sorted(names)


def make_db(**kwargs):
    db = Database(**kwargs)
    db.create_table("t", {"x": "int64"}, {"x": np.arange(1000)})
    q = db.builder("q")
    lo = q.param("lo")
    q.scan("t")
    q.filter_range("t", "x", lo=lo)
    q.select_scalar("n", q.agg_scalar("count"))
    db.register_template(q.build())
    return db


def watch_sessions(db):
    """Every session *db* opens from now on, in opening order."""
    opened, open_session = [], db.session

    def session(name=None):
        opened.append(open_session(name))
        return opened[-1]

    db.session = session
    return opened


def summed(stats):
    """Every counter of the summed records (approximate only in the
    float fields, whose additions a regrouping reorders)."""
    total = ExecutionStats()
    for s in stats:
        total.add(s)
    return pytest.approx(counters(total), rel=1e-9)


COUNT_SQL = "select count(*) from t where x >= ?"


class TestRunWorkload:
    def test_records_and_boundary_hook(self):
        db = make_db()
        boundaries = []
        result = run_workload(
            db,
            [("q", {"lo": 10}), ("q", {"lo": 10}), ("q", {"lo": 20})],
            on_boundary=boundaries.append,
        )
        assert boundaries == [0, 1, 2]
        assert len(result.records) == 3
        repeat = result.records[1].stats
        assert repeat.hits == repeat.n_marked

    def test_reused_memory_and_entries(self):
        db = make_db()
        run_workload(db, [("q", {"lo": 10}), ("q", {"lo": 10})])
        assert reused_entries(db) > 0
        assert reused_memory(db) >= 0
        naive = Database(recycle=False)
        assert reused_memory(naive) == 0
        assert reused_entries(naive) == 0

    def test_sql_items_record_hits_and_compile_rate(self):
        db = make_db()
        result = run_workload(
            db, [(COUNT_SQL, (10,)), (COUNT_SQL, (10,)), (COUNT_SQL, (20,))])
        assert len(result.records) == 3
        # Exact repeat: full hits through the prepared-statement path.
        repeat = result.records[1].stats
        assert repeat.hits == repeat.n_marked > 0
        assert result.hit_ratio > 0
        # One compile, then pure compile-cache hits.
        assert result.compile_misses == 1
        assert result.compile_hits == 2
        assert result.compile_hit_ratio == pytest.approx(2 / 3)

    def test_compile_counters_are_run_deltas(self):
        db = make_db()
        run_workload(db, [(COUNT_SQL, (1,))])
        again = run_workload(db, [(COUNT_SQL, (2,)), (COUNT_SQL, (3,))])
        # The second run's counters do not include the first's.
        assert again.compile_misses == 0
        assert again.compile_hits == 2
        assert again.compile_hit_ratio == 1.0

    def test_template_program_and_sql_items_mix(self):
        db = make_db()
        result = run_workload(db, [
            ("q", {"lo": 10}),                       # registered name
            (db.template("q"), {"lo": 10}),          # the program itself
            (COUNT_SQL, (10,)),                      # SQL text
        ])
        assert not result.errors
        assert [v.scalar() for v in result.values()] == [990, 990, 990]
        assert [r.template for r in result.records[:2]] == ["q", "q"]
        assert result.records[2].template.startswith("sql:")

    def test_serial_and_concurrent_agree(self):
        items = [(COUNT_SQL, (i % 7 * 100,)) for i in range(40)]
        items += [("q", {"lo": i}) for i in range(0, 50, 10)]
        serial = run_workload(make_db(), items)
        boundaries, lock = [], threading.Lock()

        def on_boundary(i):
            with lock:
                boundaries.append(i)

        db = make_db()
        opened = watch_sessions(db)
        concurrent = run_workload(db, items, sessions=4,
                                  on_boundary=on_boundary)
        assert not serial.errors and not concurrent.errors
        assert ([v.rows() for v in concurrent.values()]
                == [v.rows() for v in serial.values()])
        assert concurrent.potential == serial.potential
        assert [r.index for r in concurrent.records] == list(range(45))
        assert sorted(boundaries) == list(range(45))
        # Item i ran in session i % 4; nothing stays open afterwards.
        assert [r.session for r in concurrent.records] == [
            f"worker-{i % 4}" for i in range(45)]
        assert len(opened) == 4 and all(s.closed for s in opened)
        db.recycler.check_invariants()

    def test_values_can_be_dropped(self):
        result = run_workload(make_db(), [("q", {"lo": 10})] * 4, sessions=2,
                              collect_values=False)
        assert result.values() == [None] * 4 and result.hits > 0

    def test_failing_item_is_recorded_and_the_rest_complete(self):
        db = make_db()
        opened = watch_sessions(db)
        items = [(COUNT_SQL, (i,)) for i in range(9)]
        items[4] = ("select nope from t", None)
        for sessions in (1, 3):
            result = run_workload(db, items, sessions=sessions)
            assert [r.index for r in result.errors] == [4]
            failed = result.records[4]
            assert isinstance(failed.error, repro.Error)
            assert failed.stats is None and failed.value is None
            assert failed.template == "select nope from t"
            assert [r.value.scalar() for r in result.records
                    if r.error is None] == [1000 - i for i in range(9)
                                            if i != 4]
        assert sum(s.errors for s in opened) == 2
        assert sum(s.queries for s in opened) == 16
        assert all(s.closed for s in opened)

    def test_concurrent_sql_records_carry_their_template(self):
        """A concurrent SQL run breaks down per statement template."""
        other = "select max(x) from t where x < ?"
        items = [(COUNT_SQL if i % 3 else other, (i * 10,))
                 for i in range(30)]
        result = run_workload(make_db(), items, sessions=4)
        assert not result.errors
        for (sql, _p), r in zip(items, result.records):
            assert r.template == r.stats.template != "sql"
            assert r.template.startswith(
                "sql:select count" if sql is COUNT_SQL else "sql:select max")
        by_template = Counter(r.template for r in result.records)
        assert sorted(by_template.values()) == [10, 20]
        # Sessions group the same records: nothing lost, nothing doubled.
        assert list(result.sessions) == [f"worker-{i}" for i in range(4)]
        assert counters(result.total) == summed(result.sessions.values())
        text = result.render()
        assert "worker-3" in text and "total" in text

    @pytest.mark.parametrize("sessions, config", [
        (1, {}),
        (8, {}),
        (4, {"max_bytes": 400_000}),
    ], ids=["serial", "8-sessions", "bounded-pool"])
    def test_the_sum_law(self, tmp_path, sessions, config):
        """Records, sessions and the recycler's totals are one sum."""
        db = Database(spill_dir=str(tmp_path), subsumption=False, **config)
        db.recycler.spill.clock = lambda: 0.0   # every victim is demoted
        rng = np.random.default_rng(3)
        db.create_table("t", {"x": "int64"},
                        {"x": rng.integers(0, 5000, 60_000)})
        opened = watch_sessions(db)
        items = [(COUNT_SQL, (2500 + 150 * int(rng.integers(0, 16)),))
                 for _ in range(160)]
        result = run_workload(db, items, sessions=sessions,
                              collect_values=False)
        assert not result.errors
        per_record = counters(result.total)
        assert per_record == summed(s.stats for s in opened)
        assert per_record == summed(result.sessions.values())
        totals = db.recycler.totals
        assert {n: per_record[n] for n in SHARED} == pytest.approx(
            {n: getattr(totals, n) for n in SHARED}, rel=1e-9)
        assert totals.invocations == 160
        assert sum(s.queries for s in opened) == 160
        assert per_record["exact_hits"] > 0 and per_record["admissions"] > 0
        bounded = bool(config)
        assert (per_record["evictions"] > 0) == bounded
        assert (per_record["demotions"] > 0) == bounded
        db.recycler.check_invariants()


class TestRendering:
    def test_table_alignment(self):
        out = render_table("T", ["col", "value"],
                           [["a", 1.0], ["bb", 123456.0]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2] and "value" in lines[2]
        assert len({len(line) for line in lines[2:]}) == 1  # aligned

    def test_series(self):
        out = render_series("S", [1, 2], {"y": [0.5, 0.25]})
        assert "0.5000" in out and "0.2500" in out

    def test_float_formats(self):
        from repro.bench.reporting import _fmt

        assert _fmt(0) == "0"
        assert _fmt(0.12345) == "0.1235"
        assert _fmt(12.345) == "12.35"
        assert _fmt(1234.5) == "1234"
        assert _fmt("x") == "x"
