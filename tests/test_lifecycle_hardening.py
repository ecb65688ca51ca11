"""Regression tests for connection/session lifecycle hardening:
double-close, dead-thread pruning, manager bookkeeping, cursor
auto-close, context-manager parity (the disconnect-path audit)."""

from __future__ import annotations

import contextlib
import threading
from collections import Counter

import pytest

import repro
from repro.bench import run_workload
from repro.server.manager import SessionManager


@pytest.fixture
def db():
    engine = repro.Database()
    engine.create_table("t", {"x": "int64"}, {"x": range(1000)})
    yield engine
    engine.close()


class TestSessionManagerBookkeeping:
    def test_close_session_removes_from_registry(self, db):
        mgr = SessionManager(db)
        s = mgr.open_session("a")
        assert mgr.session_count == 1
        mgr.close_session(s)
        assert mgr.session_count == 0
        assert s.closed

    def test_close_session_is_idempotent(self, db):
        mgr = SessionManager(db)
        s = mgr.open_session("a")
        mgr.close_session(s)
        mgr.close_session(s)                 # no error, still zero
        assert mgr.session_count == 0

    def test_close_session_races_close_all(self, db):
        mgr = SessionManager(db)
        sessions = [mgr.open_session(f"s{i}") for i in range(20)]
        barrier = threading.Barrier(3)

        def one_by_one():
            barrier.wait()
            for s in sessions[:10]:
                mgr.close_session(s)

        def all_at_once():
            barrier.wait()
            mgr.close_all()

        threads = [threading.Thread(target=one_by_one),
                   threading.Thread(target=all_at_once)]
        for t in threads:
            t.start()
        barrier.wait()
        for t in threads:
            t.join()
        assert mgr.session_count == 0
        assert all(s.closed for s in sessions)

    def test_run_workload_leaves_no_sessions_behind(self, db):
        opened, open_session = [], db.session
        db.session = lambda name=None: (
            opened.append(open_session(name)) or opened[-1])
        result = run_workload(
            db, [("select count(*) from t where x >= ?", (i,))
                 for i in range(12)], sessions=3)
        assert not result.errors
        # Workers are per-run sessions: all closed, so back-to-back runs
        # never accumulate them ...
        assert len(opened) == 3 and all(s.closed for s in opened)
        # ... and their statistics survive in the result.
        assert len(result.sessions) == 3
        assert Counter(r.session for r in result.records) == {
            s.name: 4 for s in opened}
        assert [s.queries for s in opened] == [4, 4, 4]


class TestConnectionCursorLifecycle:
    def test_connection_close_closes_cursors(self, db):
        conn = repro.connect(database=db)
        cur1 = conn.cursor()
        cur2 = conn.cursor()
        cur1.execute("select count(*) from t")
        conn.close()
        for cur in (cur1, cur2):
            with pytest.raises(repro.InterfaceError):
                cur.execute("select count(*) from t")
        with pytest.raises(repro.InterfaceError):
            cur1.fetchone()

    def test_double_close_everywhere(self, db):
        conn = repro.connect(database=db)
        cur = conn.cursor()
        cur.close()
        cur.close()
        conn.close()
        conn.close()

    def test_cursor_contextlib_closing_parity(self, db):
        conn = repro.connect(database=db)
        with contextlib.closing(conn.cursor()) as cur:
            cur.execute("select count(*) from t")
            assert cur.fetchone() == (1000,)
        with pytest.raises(repro.InterfaceError):
            cur.fetchone()
        conn.close()

    def test_with_blocks_all_the_way_down(self, db):
        with repro.connect(database=db) as conn:
            with conn.cursor() as cur:
                cur.execute("select count(*) from t where x >= ?",
                            (250,))
                assert cur.fetchone() == (750,)
        assert conn.closed

    def test_dropped_cursor_does_not_block_gc(self, db):
        import gc

        conn = repro.connect(database=db)
        for _ in range(50):
            cur = conn.cursor()
            cur.execute("select count(*) from t")
        del cur
        gc.collect()
        # The weak registry must not keep dropped cursors alive.
        assert len(conn._cursors) <= 1
        conn.close()

    def test_session_close_midquery_from_other_thread(self, db):
        """Closing a session while another thread executes on it must
        not corrupt engine state: the in-flight query completes (or
        errors cleanly) and the table locks are released."""
        session = db.session("victim")
        results, errors = [], []

        def run():
            try:
                for i in range(50):
                    r = session.execute(
                        "select count(*) from t where x >= ?", (i,))
                    results.append(r.value.rows()[0][0])
            except RuntimeError as exc:      # session closed mid-loop
                errors.append(str(exc))

        t = threading.Thread(target=run)
        t.start()
        session.close()
        t.join(timeout=30)
        assert not t.is_alive()
        # Either outcome is legal; the engine must still work:
        db.insert("t", {"x": [77777]})       # table lock not wedged
        r = db.execute("select count(*) from t")
        assert r.value.rows()[0][0] == 1001
