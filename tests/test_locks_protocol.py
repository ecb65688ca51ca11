"""Lock-protocol suite: rwlock semantics, per-table tier, the pool lock.

Covers the three-level locking contract (database → table → pool):

* :class:`ReadWriteLock` — re-entrancy, phase fairness in both
  directions (a waiting writer blocks new readers, so a steady query
  stream cannot starve DML; a releasing writer admits already-waiting
  readers before the next writer, so a tight update loop cannot starve
  queries), the no-upgrade rule, and owner checks that are race-free
  because every owner/depth read happens under the condition variable.
* :class:`TableLockManager` — queries and DML on *different* tables
  overlap; on the same table they serialise; DDL drains everything;
  table locks are acquired in sorted-name order so crossing lock sets
  cannot deadlock.
* The recycle pool's one lock — mutations from many threads neither
  deadlock nor corrupt the books.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro import Database
from repro.core.pool import RecycleEntry, RecyclePool, make_signature
from repro.server.locks import (
    LockProtocolError,
    ReadWriteLock,
    TableLockManager,
)
from repro.storage.bat import BAT

WAIT = 5.0  # generous thread-join bound; failures show up as timeouts


# ---------------------------------------------------------------------------
# ReadWriteLock semantics
# ---------------------------------------------------------------------------
class TestReadWriteLock:
    def test_reentrant_read(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with lock.read_locked():
                pass
        # fully released: a writer can get in immediately
        with lock.write_locked():
            pass

    def test_reentrant_write_and_nested_read(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.write_locked():
                pass
            with lock.read_locked():  # writer's virtual read
                pass
            with lock.write_locked():  # still re-entrant after the read
                pass

    def test_no_read_to_write_upgrade(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with pytest.raises(LockProtocolError):
                lock.acquire_write()

    def test_release_read_without_acquire(self):
        with pytest.raises(LockProtocolError):
            ReadWriteLock().release_read()

    def test_release_write_by_non_owner(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        err = []
        t = threading.Thread(
            target=lambda: err.append(pytest.raises(
                LockProtocolError, lock.release_write)))
        t.start()
        t.join(WAIT)
        lock.release_write()
        assert len(err) == 1

    def test_writer_preference_blocks_new_readers(self):
        """reader in → writer waits → late reader queues BEHIND writer."""
        lock = ReadWriteLock()
        order = []
        first_in = threading.Event()
        writer_waiting = threading.Event()
        release_first = threading.Event()

        def first_reader():
            with lock.read_locked():
                first_in.set()
                release_first.wait(WAIT)
            order.append("r1-out")

        def writer():
            first_in.wait(WAIT)
            writer_waiting.set()
            with lock.write_locked():
                order.append("w")

        def late_reader():
            writer_waiting.wait(WAIT)
            time.sleep(0.05)  # let the writer reach its cond.wait
            with lock.read_locked():
                order.append("r2")

        threads = [threading.Thread(target=f)
                   for f in (first_reader, writer, late_reader)]
        for t in threads:
            t.start()
        writer_waiting.wait(WAIT)
        time.sleep(0.05)
        release_first.set()
        for t in threads:
            t.join(WAIT)
        assert order.index("w") < order.index("r2")

    def test_writer_not_starved_by_reader_stream(self):
        lock = ReadWriteLock()
        stop = threading.Event()
        acquired = threading.Event()

        def reader_stream():
            while not stop.is_set():
                with lock.read_locked():
                    time.sleep(0.001)

        readers = [threading.Thread(target=reader_stream)
                   for _ in range(4)]
        for t in readers:
            t.start()

        def writer():
            with lock.write_locked():
                acquired.set()

        w = threading.Thread(target=writer)
        w.start()
        ok = acquired.wait(WAIT)
        stop.set()
        w.join(WAIT)
        for t in readers:
            t.join(WAIT)
        assert ok, "writer starved by a steady reader stream"

    def test_readers_not_starved_by_writer_stream(self):
        """Phase fairness: a tight write loop must not lock readers out.

        Under strict writer preference the writer re-registers as
        waiting before a woken reader re-checks the gate, so back-to-
        back writes starve the read side forever — the shape of a DML
        hammer on one table while queries bind it.
        """
        lock = ReadWriteLock()
        stop = threading.Event()

        def writer_stream():
            while not stop.is_set():
                with lock.write_locked():
                    pass

        writers = [threading.Thread(target=writer_stream)
                   for _ in range(2)]
        for t in writers:
            t.start()
        try:
            done = 0
            deadline = time.monotonic() + WAIT
            while done < 20 and time.monotonic() < deadline:
                with lock.read_locked():
                    done += 1
            assert done >= 20, \
                f"readers starved by a writer stream ({done} reads)"
        finally:
            stop.set()
            for t in writers:
                t.join(WAIT)

    def test_owner_checks_survive_write_churn(self):
        """Hammer the re-entrant fast paths from many threads.

        The old code read ``_writer``/``_writer_depth`` outside the
        condition; with enough churn a stale owner id could mis-grant a
        re-entrant write to a non-owner, corrupting the depth.  Here
        every thread's nesting must balance exactly."""
        lock = ReadWriteLock()
        errors = []

        def worker():
            try:
                for _ in range(200):
                    with lock.write_locked():
                        with lock.write_locked():
                            pass
                    with lock.read_locked():
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT * 4)
        assert not errors
        # fully quiescent afterwards
        with lock.write_locked():
            pass


# ---------------------------------------------------------------------------
# TableLockManager
# ---------------------------------------------------------------------------
class TestTableLockManager:
    def test_dml_and_query_on_distinct_tables_overlap(self):
        mgr = TableLockManager()
        in_dml = threading.Event()
        release_dml = threading.Event()
        query_done = threading.Event()

        def dml():
            with mgr.dml_locked("lineitem"):
                in_dml.set()
                release_dml.wait(WAIT)

        def query():
            in_dml.wait(WAIT)
            with mgr.query_locked(["photoobj"]):
                query_done.set()

        threads = [threading.Thread(target=f) for f in (dml, query)]
        for t in threads:
            t.start()
        # the query must complete WHILE the DML still holds its table
        assert query_done.wait(WAIT), \
            "query on another table blocked behind DML"
        release_dml.set()
        for t in threads:
            t.join(WAIT)

    def test_dml_blocks_query_on_same_table(self):
        mgr = TableLockManager()
        in_dml = threading.Event()
        release_dml = threading.Event()
        query_done = threading.Event()

        def dml():
            with mgr.dml_locked("t"):
                in_dml.set()
                release_dml.wait(WAIT)

        def query():
            in_dml.wait(WAIT)
            with mgr.query_locked(["t"]):
                query_done.set()

        threads = [threading.Thread(target=f) for f in (dml, query)]
        for t in threads:
            t.start()
        in_dml.wait(WAIT)
        time.sleep(0.05)
        assert not query_done.is_set(), "query overlapped same-table DML"
        release_dml.set()
        assert query_done.wait(WAIT)
        for t in threads:
            t.join(WAIT)

    def test_ddl_drains_queries_and_dml(self):
        mgr = TableLockManager()
        in_query = threading.Event()
        release_query = threading.Event()
        ddl_done = threading.Event()

        def query():
            with mgr.query_locked(["a", "b"]):
                in_query.set()
                release_query.wait(WAIT)

        def ddl():
            in_query.wait(WAIT)
            with mgr.ddl_locked():
                ddl_done.set()

        threads = [threading.Thread(target=f) for f in (query, ddl)]
        for t in threads:
            t.start()
        in_query.wait(WAIT)
        time.sleep(0.05)
        assert not ddl_done.is_set()
        release_query.set()
        assert ddl_done.wait(WAIT)
        for t in threads:
            t.join(WAIT)

    def test_crossing_lock_sets_cannot_deadlock(self):
        """Queries naming {a,b} and {b,a} plus DML on both, many rounds.

        Sorted-order acquisition means the crossing sets cannot form a
        cycle; the test simply must terminate."""
        mgr = TableLockManager()
        errors = []

        def query(tables):
            try:
                for _ in range(100):
                    with mgr.query_locked(tables):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def dml(table):
            try:
                for _ in range(100):
                    with mgr.dml_locked(table):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=query, args=(["a", "b"],)),
            threading.Thread(target=query, args=(["b", "a"],)),
            threading.Thread(target=dml, args=("a",)),
            threading.Thread(target=dml, args=("b",)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT * 4)
        assert not any(t.is_alive() for t in threads), "deadlock"
        assert not errors

    def test_database_derives_table_read_set_from_plan(self):
        db = Database(recycle=False)
        db.create_table("a", {"x": "int64"}, {"x": np.arange(10)})
        db.create_table("b", {"y": "int64"}, {"y": np.arange(10)})
        stmt = db.prepare("select count(*) from a where x > 3")
        stmt.bind(None)  # compiles
        assert db._bind_tables(stmt.program) == frozenset({"a"})
        db.close()


# ---------------------------------------------------------------------------
# The recycle pool's one lock
# ---------------------------------------------------------------------------
def _entry(value, opname, args=()):
    sig = make_signature(opname, args)
    return RecycleEntry(
        sig=sig, opname=opname, kind="op", value=value,
        cost=0.1, nbytes=value.owned_nbytes, tuples=len(value),
        template_key=(opname, 0), invocation_id=1,
        admitted_at=0.0, last_used=0.0,
        arg_tokens=tuple(a.token for a in args if isinstance(a, BAT)),
    )


class TestPoolLock:
    def test_concurrent_mutations_stay_consistent(self):
        pool = RecyclePool()
        errors = []

        def churn(worker_id):
            try:
                for i in range(100):
                    base = BAT.from_tail(np.arange(8))
                    child = BAT.view(base.head, base.tail,
                                     sources=base.sources,
                                     subset_parent=base)
                    parent = _entry(base, f"w{worker_id}.base{i}")
                    leaf = _entry(child, f"w{worker_id}.view{i}",
                                  (base,))
                    pool.add(parent)
                    pool.add(leaf)
                    assert pool.lookup(parent.sig) is parent
                    pool.remove(leaf)
                    pool.remove(parent)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(w,))
                   for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)   # interleave the threads finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(WAIT * 6)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "deadlock"
        assert not errors
        assert len(pool) == 0
        pool.check_invariants()


# ---------------------------------------------------------------------------
# Session close vs. connection close (DB-API lifecycle race)
# ---------------------------------------------------------------------------
class TestSessionCloseRace:
    def test_session_close_is_idempotent_and_concurrent_safe(self):
        db = Database(recycle=False)
        session = db.session()
        threads = [threading.Thread(target=session.close)
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        assert session.closed
        session.close()  # still idempotent afterwards
        db.close()

    def test_connection_close_races_cursor_sessions(self):
        """A connection closed while threads open cursors and execute.

        Every thread loops cursor → execute → fetch until the close
        stops it: it must end on InterfaceError, with correct rows
        before that and no other error, and every cursor the connection
        registered must end with its session closed."""
        from repro import dbapi

        sql = "select count(*) from t where x >= ?"
        for _ in range(10):
            conn = dbapi.connect()
            conn.create_table("t", {"x": "int64"}, {"x": np.arange(64)})
            start = threading.Barrier(5)
            ends, cursors = [], []

            def worker():
                start.wait(WAIT)
                try:
                    while True:
                        cur = conn.cursor()
                        cursors.append(cur)
                        assert cur.execute(sql, (8,)).fetchall() == [(56,)]
                except dbapi.InterfaceError:
                    ends.append("closed")
                except Exception as exc:  # pragma: no cover
                    ends.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)   # interleave the threads finely
            try:
                for t in threads:
                    t.start()
                start.wait(WAIT)
                time.sleep(0.005)
                conn.close()
                for t in threads:
                    t.join(WAIT)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert ends == ["closed"] * 4
            assert cursors
            assert all(cur.session.closed for cur in cursors)
