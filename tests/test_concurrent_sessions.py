"""Concurrent multi-session execution over one shared recycle pool.

Covers the :mod:`repro.server` subsystem end to end: N threads × M
queries against a shared pool must raise no exceptions, produce results
identical to a serial recycler-off run, keep the pool invariants intact
(bytes/entries accounting, leaf-only eviction, dependency counts), and
actually exhibit cross-session (*global*) reuse — otherwise the test
proves nothing about sharing.

The ``stress`` marker (registered in pytest.ini) lets slow runs be
deselected with ``-m "not stress"``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import Database
from repro.bench import run_workload
from repro.server.locks import LockProtocolError, ReadWriteLock

COLUMNS = {"x": "int64", "g": "int64", "v": "float64", "s": "U2"}


def _data(seed: int, n: int = 30_000):
    rng = np.random.default_rng(seed)
    return {
        "x": rng.integers(0, 2000, n),
        "g": rng.integers(0, 16, n),
        "v": np.round(rng.random(n) * 100, 6),
        "s": rng.choice(["AA", "AB", "BA", "BB"], n),
    }


def make_db(seed: int = 5, **kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table("t", COLUMNS, _data(seed))
    return db


def workload(n_queries: int, seed: int = 9):
    """A query stream with heavy overlap (shared templates + literals)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_queries):
        lo = int(rng.choice([0, 200, 400, 600, 800]))
        hi = lo + int(rng.choice([150, 300, 500]))
        shape = int(rng.integers(0, 4))
        if shape == 0:
            sql = f"select count(*) from t where x >= {lo} and x < {hi}"
        elif shape == 1:
            sql = (
                f"select g, count(*) as n, sum(v) as tot from t "
                f"where x >= {lo} and x < {hi} group by g order by g"
            )
        elif shape == 2:
            sql = (
                f"select s, max(v) from t where x between {lo} and {hi} "
                f"group by s order by s"
            )
        else:
            sql = f"select count(*) from t where s like 'A%' and x < {hi}"
        out.append(sql)
    return out


def serial_reference(seed: int, sqls):
    ref = Database(recycle=False)
    ref.create_table("t", COLUMNS, _data(seed))
    return [ref.execute(sql).value for sql in sqls]


def assert_identical(got, expected, sql):
    assert got.names == expected.names, sql
    assert len(got) == len(expected), sql
    for gc, ec in zip(got.columns, expected.columns):
        np.testing.assert_array_equal(gc, ec, err_msg=sql)


# ---------------------------------------------------------------------------
# ReadWriteLock unit behaviour
# ---------------------------------------------------------------------------
class TestReadWriteLock:
    def test_reentrant_read(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with lock.read_locked():
                pass
        with lock.write_locked():  # fully released
            pass

    def test_upgrade_rejected(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with pytest.raises(LockProtocolError):
                lock.acquire_write()

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                order.append("read")

        t = threading.Thread(target=reader)
        t.start()
        order.append("write")
        lock.release_write()
        t.join(timeout=5)
        assert order == ["write", "read"]

    def test_writer_reentrant_and_nested_read(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.write_locked():
                with lock.read_locked():
                    pass

    def test_non_lifo_release_does_not_corrupt_state(self):
        # write -> nested read -> release write -> release read: the
        # nested read never touched the reader count, so releasing it
        # after the write side must not drive the count negative (which
        # would deadlock every future writer).
        lock = ReadWriteLock()
        lock.acquire_write()
        lock.acquire_read()
        lock.release_write()
        lock.release_read()
        acquired = []

        def writer():
            with lock.write_locked():
                acquired.append(True)

        t = threading.Thread(target=writer)
        t.start()
        t.join(timeout=5)
        assert acquired == [True]


# ---------------------------------------------------------------------------
# Multi-session execution
# ---------------------------------------------------------------------------
def test_sessions_share_pool():
    """Two sessions: the second gets global hits off the first's entries."""
    db = make_db()
    s1, s2 = db.session(), db.session()
    sql = "select count(*) from t where x >= 100 and x < 700"
    s1.execute(sql)
    r = s2.execute(sql)
    assert r.stats.global_hits > 0
    assert s2.stats.global_hits > 0
    assert s1.queries == s2.queries == 1
    db.recycler.check_invariants()


def test_concurrent_matches_serial_small():
    seed, sqls = 5, workload(64)
    db = make_db(seed)
    expected = serial_reference(seed, sqls)
    result = run_workload(db, [(s, None) for s in sqls],
                          sessions=4)
    assert not result.errors
    for sql, outcome, exp in zip(sqls, result.records, expected):
        assert_identical(outcome.value, exp, sql)
    db.recycler.check_invariants()


@pytest.mark.stress
def test_concurrent_stress_shared_pool():
    """Acceptance: ≥8 sessions, byte-identical results, global reuse."""
    seed, sqls = 17, workload(400, seed=21)
    db = make_db(seed)
    expected = serial_reference(seed, sqls)

    # Poll invariants from the main thread while workers hammer the pool —
    # check_invariants takes the recycler lock, so snapshots are consistent.
    stop = threading.Event()
    invariant_errors = []

    def poll():
        while not stop.is_set():
            try:
                db.recycler.check_invariants()
            except Exception as exc:  # pragma: no cover - failure path
                invariant_errors.append(exc)
                return
            stop.wait(0.02)

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        result = run_workload(db, [(s, None) for s in sqls],
                              sessions=8)
    finally:
        stop.set()
        poller.join(timeout=10)

    assert not invariant_errors, invariant_errors
    assert not result.errors, [str(o.error) for o in result.errors]
    assert len(result.records) == len(sqls)
    for sql, outcome, exp in zip(sqls, result.records, expected):
        assert_identical(outcome.value, exp, sql)

    # Cross-session sharing must actually have happened.
    assert db.recycler.totals.global_hits > 0
    report = db.recycler_report()
    assert report.total.reuses > 0
    per_session = [s.global_hits for s in result.sessions.values()]
    assert sum(per_session) > 0
    # Pool accounting: recomputed-from-scratch equals the books.
    db.recycler.check_invariants()
    assert db.pool_bytes == sum(
        e.nbytes for e in db.recycler.pool.entries()
    )
    assert db.pool_entries == len(db.recycler.pool.entries())


@pytest.mark.stress
def test_concurrent_stress_bounded_pool():
    """Eviction racing admission across sessions keeps invariants intact."""
    seed, sqls = 29, workload(240, seed=33)
    db = make_db(seed, max_entries=40, max_bytes=1_500_000)
    expected = serial_reference(seed, sqls)
    result = run_workload(db, [(s, None) for s in sqls],
                          sessions=8)
    assert not result.errors, [str(o.error) for o in result.errors]
    for sql, outcome, exp in zip(sqls, result.records, expected):
        assert_identical(outcome.value, exp, sql)
    assert len(db.recycler.pool) <= 40
    assert db.pool_bytes <= 1_500_000
    assert db.recycler.totals.evictions > 0
    db.recycler.check_invariants()


def test_concurrent_queries_with_writer_thread():
    """Readers on one table race a writer updating another: no cross-talk."""
    seed = 41
    db = make_db(seed)
    db.create_table("side", {"y": "int64"}, {"y": np.arange(100)})
    sqls = workload(120, seed=43)
    expected = serial_reference(seed, sqls)

    stop = threading.Event()
    writer_errors = []

    def writer():
        i = 0
        while not stop.is_set():
            try:
                db.insert("side", {"y": np.arange(5) + i})
                db.update_column("side", "y", [0, 1], [i, i + 1])
                i += 5
            except Exception as exc:  # pragma: no cover - failure path
                writer_errors.append(exc)
                return

    t = threading.Thread(target=writer)
    t.start()
    try:
        result = run_workload(db, [(s, None) for s in sqls],
                              sessions=6)
    finally:
        stop.set()
        t.join(timeout=10)

    assert not writer_errors, writer_errors
    assert not result.errors, [str(o.error) for o in result.errors]
    for sql, outcome, exp in zip(sqls, result.records, expected):
        assert_identical(outcome.value, exp, sql)
    db.recycler.check_invariants()


def test_run_batch_concurrent_reports_sessions(tpch_db):
    """The bench driver reports per-session and aggregate hit rates."""
    from repro.workloads.tpch import mixed_instances

    instances = mixed_instances(n_instances_each=3, seed=7,
                                queries=("q04", "q12"), sf=0.005)
    result = run_workload(tpch_db, instances, sessions=3,
                          collect_values=False)
    assert result.errors == []
    assert len(result.records) == len(instances)
    assert len(result.sessions) == 3
    assert result.potential > 0
    assert 0.0 <= result.hit_ratio <= 1.0
    text = result.render()
    assert "session" in text and "total" in text
    tpch_db.recycler.check_invariants()


def test_skyserver_concurrent_log(sky_db):
    """The SkyServer driver replays a shared log across sessions."""
    from repro.workloads.skyserver import SkyQueryLog

    spec = sky_db.catalog.table("elredshift").column_array("specobjid")
    log = SkyQueryLog(spec_ids=spec, seed=3)
    result = run_workload(sky_db, log.sample_sql(40), sessions=4)
    assert not result.errors
    assert len(result.records) == 40
    assert result.hit_ratio > 0
    sky_db.recycler.check_invariants()
