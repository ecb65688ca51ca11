"""End-to-end network server tests: queries, prepared statements,
stats, backpressure, timeouts, graceful drain, disconnect hygiene."""

from __future__ import annotations

import dataclasses
import datetime
import errno
import gc
import itertools
import socket
import threading
import time
from collections import Counter

import numpy as np
import pytest

import repro
from repro import ExecutionStats, InvocationResult
from repro.dbapi import BaseCursor, Cursor
from repro.errors import (
    Error,
    InterfaceError,
    OperationalError,
    ProgrammingError,
)
from repro.net.client import NetConnection, NetCursor
from repro.net import protocol
from repro.net import server as server_module
from repro.net.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    recv_message,
    send_message,
)
from repro.net.server import (
    MAX_PENDING_RESULTS,
    THREAD_PREFIX,
    serve_in_thread,
)
from repro.server.session import Session


def server_threads():
    return [t.name for t in threading.enumerate()
            if t.name.startswith(THREAD_PREFIX)]


@pytest.fixture(autouse=True)
def no_thread_outlives_the_server():
    """Every server a test starts is shut down by its end, and shutdown
    joins all its threads: accept, connections (stragglers of timed-out
    statements included) and the watchdog."""
    assert server_threads() == []
    yield
    assert server_threads() == []


@pytest.fixture
def small_db():
    db = repro.Database()
    db.create_table("t", {"x": "int64", "g": "int64"},
                    {"x": range(2000), "g": [i % 7 for i in range(2000)]})
    yield db
    db.close()


@pytest.fixture
def served(small_db):
    handle = serve_in_thread(small_db)
    yield handle
    handle.shutdown()


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def slow_first_statement(monkeypatch, seconds):
    """Make the first statement any session runs take *seconds* longer."""
    original, calls = Session.run_statement, itertools.count()

    def run_statement(self, stmt, params=None):
        if next(calls) == 0:
            time.sleep(seconds)
        return original(self, stmt, params)

    monkeypatch.setattr(Session, "run_statement", run_statement)


def raw_hello(handle) -> socket.socket:
    sock = socket.create_connection((handle.host, handle.port), timeout=5)
    send_message(sock, {"type": "hello", "version": PROTOCOL_VERSION})
    assert recv_message(sock)["type"] == "welcome"
    return sock


class TestBasicQueries:
    def test_execute_and_fetch(self, served):
        with repro.connect(url=served.url) as conn:
            cur = conn.cursor()
            cur.execute("select count(*) from t where x >= ?", (500,))
            assert cur.fetchone() == (1500,)
            assert cur.fetchone() is None

    def test_repeat_execution_hits_recycler(self, served):
        with repro.connect(url=served.url) as conn:
            cur = conn.cursor()
            cur.execute("select count(*) from t where x >= ?", (100,))
            cur.execute("select count(*) from t where x >= ?", (100,))
            assert cur.stats["hits"] > 0
            # The frame carries the invocation's record, key for field.
            assert set(cur.stats) == set(
                dataclasses.asdict(ExecutionStats())) | {"hits"}
            assert cur.stats["hits"] == cur.stats["exact_hits"] \
                == cur.stats["n_marked"]
            assert cur.stats["template"].startswith("sql:select count")

    def test_row_batching_streams_everything(self, small_db):
        with serve_in_thread(small_db) as handle:
            with repro.connect(url=handle.url, fetch_batch=64) as conn:
                cur = conn.cursor()
                cur.execute("select x from t where x < 1000")
                rows = cur.fetchall()
                assert len(rows) == 1000
                assert rows[0] == (0,) and rows[-1] == (999,)
                assert cur.rowcount == 1000

    def test_fetchmany_across_batches(self, small_db):
        with serve_in_thread(small_db) as handle:
            with repro.connect(url=handle.url, fetch_batch=50) as conn:
                cur = conn.cursor()
                cur.execute("select x from t where x < 130")
                assert len(cur.fetchmany(70)) == 70
                assert len(cur.fetchmany(70)) == 60
                assert cur.fetchmany(70) == []

    def test_ninth_pending_result_evicts_the_oldest(self, served):
        sql = "select x from t where x < 5 order by x"
        with repro.connect(url=served.url, fetch_batch=2) as conn:
            cursors = [conn.cursor().execute(sql)
                       for _ in range(MAX_PENDING_RESULTS + 1)]
            for cur in cursors[1:]:
                assert cur.fetchall() == [(x,) for x in range(5)]
            # The oldest keeps its first frame, then has nothing to pull.
            assert cursors[0].fetchmany(2) == [(0,), (1,)]
            with pytest.raises(ProgrammingError, match="no fetchable"):
                cursors[0].fetchone()

    def test_iteration_and_description(self, served):
        with repro.connect(url=served.url) as conn:
            cur = conn.cursor()
            cur.execute("select g, count(*) as n from t group by g "
                        "order by g")
            assert [d[0] for d in cur.description] == ["g", "n"]
            assert len(list(cur)) == 7

    def test_executemany_collects_stats(self, served):
        with repro.connect(url=served.url) as conn:
            cur = conn.cursor()
            cur.executemany("select count(*) from t where x >= ?",
                            [(i * 100,) for i in range(5)])
            assert len(cur.stats_batch) == 5
            assert cur.fetchone() == (1600,)

    def test_errors_are_typed_and_connection_survives(self, served):
        with repro.connect(url=served.url) as conn:
            cur = conn.cursor()
            with pytest.raises(Error):
                cur.execute("select nope from t")
            cur.execute("select count(*) from t")
            assert cur.fetchone() == (2000,)


#: Rows per frame on the network cursor: every contract case below
#: crosses ``fetch`` frames.
PARITY_FETCH_BATCH = 7


@pytest.fixture(params=["embedded", "network"])
def any_cursor(request, small_db):
    """A cursor on ``small_db``, once embedded and once over the wire."""
    if request.param == "embedded":
        with repro.connect(database=small_db) as conn:
            yield conn.cursor()
    else:
        with serve_in_thread(small_db) as handle, \
                repro.connect(url=handle.url,
                              fetch_batch=PARITY_FETCH_BATCH) as conn:
            yield conn.cursor()


#: Table ``d``: one column per numpy dtype kind a cell can come from, 10
#: rows so a parity query crosses ``fetch`` frames.
DATED = {
    "k": np.arange(10, dtype="int64"),
    "day": np.datetime64("1998-11-28")
    + np.arange(10).astype("timedelta64[D]"),
    "v": np.array([0.5, 1.5, np.nan, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5]),
    "s": np.array(["a", "bb", "ccc", "dddd", "", "f", "g", "h", "i", "j"],
                  dtype="U4"),
    "flag": np.arange(10) % 3 == 0,
    "u": np.arange(10, dtype="uint32") * 4_000_000,
    "f": np.linspace(-1, 1, 10, dtype="float32"),
    "td": np.arange(10).astype("timedelta64[D]") - np.timedelta64(3, "D"),
    "ts": np.datetime64("1998-12-01T10:20:30")
    + np.arange(10).astype("timedelta64[s]"),
    "ns": np.datetime64("1998-12-01T00:00:00.000000001")
    + np.arange(10).astype("timedelta64[ns]"),
    "raw": np.array([b"a\x00b", b"", b"xyz", b"\x00", b"q", b"r", b"s",
                     b"t", b"u", b"v"], dtype="S3"),
}


@pytest.fixture
def dated(small_db):
    """Table ``d`` in ``small_db``, holding :data:`DATED`."""
    small_db.create_table(
        "d", {name: col.dtype.str for name, col in DATED.items()}, DATED)


def _typed(rows):
    """Cells as ``(type, repr)``: equal values *and* types, NaN included."""
    return [[(type(c), repr(c)) for c in row] for row in rows]


class TestCursorParity:
    """One cursor contract, run on both transports."""

    def test_dbapi_parity_with_embedded(self, any_cursor):
        sql = "select g, count(*) as n from t where x >= ? group by g " \
              "order by g"
        counts = Counter(x % 7 for x in range(250, 2000))
        assert any_cursor.execute(sql, (250,)).fetchall() == \
            sorted(counts.items())

    def test_fetch_before_execute(self, any_cursor):
        for fetch in (any_cursor.fetchone, any_cursor.fetchmany,
                      any_cursor.fetchall, lambda: list(any_cursor)):
            with pytest.raises(ProgrammingError, match="no result set"):
                fetch()

    def test_execute_without_result_set_has_nothing_to_fetch(
            self, any_cursor, monkeypatch):
        # A statement whose value is a bare scalar, on either side of
        # the wire (the server runs statements through run_statement).
        scalar = InvocationResult(42, ExecutionStats())
        monkeypatch.setattr(Session, "execute",
                            lambda self, sql, params=None: scalar)
        monkeypatch.setattr(Session, "run_statement",
                            lambda self, stmt, params=None: scalar)
        cur = any_cursor.execute("select count(*) from t")
        assert cur.stats is not None
        assert cur.description is None and cur.rowcount == -1
        for fetch in (cur.fetchone, cur.fetchmany, cur.fetchall,
                      lambda: list(cur)):
            with pytest.raises(ProgrammingError):
                fetch()

    def test_empty_result(self, any_cursor):
        cur = any_cursor.execute("select x, g from t where x < 0")
        assert cur.description == [
            ("x", "INTEGER", None, 8, None, None, None),
            ("g", "INTEGER", None, 8, None, None, None)]
        assert cur.rowcount == 0
        assert cur.fetchone() is None
        assert cur.fetchmany(5) == [] and cur.fetchall() == []

    def test_cell_types(self, any_cursor, dated):
        # Every cell is what ``tolist()`` gives for its column: a
        # datetime.date, datetime.timedelta, int nanoseconds, bytes with
        # a NUL, NaN... on both transports.
        cur = any_cursor.execute(
            f"select {', '.join(DATED)} from d where day >= ? order by k",
            (datetime.date(1998, 11, 30),))
        want = list(zip(*(col[2:].tolist() for col in DATED.values())))
        assert len(want) > PARITY_FETCH_BATCH
        assert _typed(cur.fetchall()) == _typed(want)

    def test_executemany(self, any_cursor):
        cur = any_cursor
        sql = "select x from t where x < ? order by x"
        cur.executemany(sql, [(10,), (20,), (30,)])
        assert len(cur.stats_batch) == 3 and cur.stats is cur.stats_batch[-1]
        assert cur.rowcount == 30
        assert cur.fetchall() == [(x,) for x in range(30)]
        # No parameter sets: nothing ran, and nothing is left over.
        cur.executemany(sql, [])
        assert cur.stats_batch == [] and cur.stats is None
        assert cur.description is None and cur.rowcount == -1
        with pytest.raises(ProgrammingError):
            cur.fetchone()

    def test_closed_cursor(self, any_cursor):
        cur = any_cursor.execute("select x from t where x < 20")
        cur.close()
        cur.close()                         # idempotent
        for call in (cur.fetchone, cur.fetchmany, cur.fetchall,
                     lambda: cur.execute("select count(*) from t"),
                     lambda: cur.executemany("select count(*) from t",
                                             [()])):
            with pytest.raises(InterfaceError, match="closed"):
                call()

    def test_close_inside_a_fetch(self, any_cursor):
        """A close landing inside a fetch (as from another thread) ends
        it with InterfaceError on both transports: the pull finds the
        cursor reset and says so instead of using the dropped handle."""
        cur = any_cursor.execute("select x from t where x < 20")
        pull = cur._pull

        def closing_pull():
            cur.close()
            return pull()

        cur._pull = closing_pull
        with pytest.raises(InterfaceError, match="cursor is closed"):
            cur.fetchall()

    def test_failed_execute_clears_previous_rows(self, any_cursor):
        cur = any_cursor.execute("select x from t where x < 20")
        cur.fetchone()
        with pytest.raises(ProgrammingError):
            cur.execute("select nope from t")
        assert cur.description is None and cur.rowcount == -1
        assert cur.stats is None
        with pytest.raises(ProgrammingError, match="no result set"):
            cur.fetchall()
        assert cur.execute("select count(*) from t").fetchone() == (2000,)

    def test_wrong_arity(self, any_cursor):
        sql = "select count(*) from t where x >= ?"
        for params in ((1, 2), None, {"lo": 1}):
            with pytest.raises(ProgrammingError):
                any_cursor.execute(sql, params)

    def test_partial_iteration_then_fetchall(self, any_cursor):
        cur = any_cursor.execute("select x from t where x < 20 order by x")
        assert list(itertools.islice(cur, 9)) == [(x,) for x in range(9)]
        assert cur.fetchmany(2) == [(9,), (10,)]
        assert cur.fetchall() == [(x,) for x in range(11, 20)]
        assert list(cur) == [] and cur.fetchone() is None

    def test_arraysize(self, any_cursor):
        cur = any_cursor.execute("select x from t where x < 20 order by x")
        assert cur.arraysize == 1
        assert cur.fetchmany() == [(0,)]
        cur.arraysize = 8
        assert cur.fetchmany() == [(x,) for x in range(1, 9)]
        assert cur.fetchmany(0) == []
        assert len(cur.fetchmany()) == 8 and len(cur.fetchmany()) == 3

    def test_named_and_date_parameters(self, any_cursor, dated):
        cur = any_cursor
        assert cur.execute("select count(*) from t where x >= :lo and "
                           "x < :hi", {"lo": 10, "hi": 30}).fetchone() \
            == (20,)
        for day in (datetime.date(1998, 12, 1), np.datetime64("1998-12-01"),
                    datetime.datetime(1998, 12, 1)):
            assert cur.execute("select count(*) from d where day >= ?",
                               (day,)).fetchone() == (7,)
            assert cur.execute("select count(*) from d where day >= :day",
                               {"day": day}).fetchone() == (7,)

    def test_negative_fetchmany_size_is_refused(self, any_cursor):
        cur = any_cursor
        cur.execute("select x from t where x < 10 order by x")
        with pytest.raises(ProgrammingError):
            cur.fetchmany(-1)
        # The refused call did not move the cursor past any row.
        assert cur.fetchall() == [(x,) for x in range(10)]


#: What an outside tracer wraps on each cursor leaf, by attribute name.
TRACED = [(Cursor, "execute"), (Cursor, "fetchall"),
          (NetCursor, "execute_named"), (NetCursor, "fetchall")]


def test_leaves_can_be_wrapped_one_class_at_a_time(small_db, served):
    """Wrap each leaf's traced methods the way an outside tracer does
    (``getattr``/``setattr`` per class, undone in reverse): a call on
    one leaf never runs the other leaf's wrapper, wrappers never nest,
    and afterwards every attribute is its original function again."""
    for owner, attr in TRACED:
        assert getattr(owner, attr).__qualname__.split(".")[0] in (
            BaseCursor.__name__, owner.__name__)
    originals = [getattr(owner, attr) for owner, attr in TRACED]
    own = [attr in vars(owner) for owner, attr in TRACED]
    calls, depth, undo = [], [0], []

    def wrap(owner, attr, fn):
        def wrapper(self, *args, **kwargs):
            calls.append((owner.__name__, attr, type(self).__name__,
                          depth[0]))
            depth[0] += 1
            try:
                return fn(self, *args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    try:
        for owner, attr in TRACED:
            original = getattr(owner, attr)
            setattr(owner, attr, wrap(owner, attr, original))
            undo.append(lambda o=owner, a=attr, f=original: setattr(o, a, f))
        with repro.connect(database=small_db) as conn:
            conn.cursor().execute("select count(*) from t").fetchall()
        with repro.connect(url=served.url) as conn:
            conn.prepare("cnt", "select count(*) from t")
            conn.cursor().execute_named("cnt").fetchall()
        assert calls == [
            ("Cursor", "execute", "Cursor", 0),
            ("Cursor", "fetchall", "Cursor", 0),
            ("NetCursor", "execute_named", "NetCursor", 0),
            ("NetCursor", "fetchall", "NetCursor", 0)]
    finally:
        while undo:
            undo.pop()()
        assert [getattr(o, a) for o, a in TRACED] == originals
        for (owner, attr), was_own in zip(TRACED, own):
            if not was_own:                 # drop the restored copies
                delattr(owner, attr)


class TestNamedPreparedStatements:
    def test_prepare_execute_close(self, served):
        with repro.connect(url=served.url) as conn:
            info = conn.prepare("cnt", "select count(*) from t "
                                       "where x >= ?")
            assert info["n_placeholders"] == 1
            cur = conn.cursor()
            assert cur.execute_named("cnt", (1500,)).fetchone() == (500,)
            conn.close_statement("cnt")
            with pytest.raises(ProgrammingError, match="no prepared"):
                cur.execute_named("cnt", (1500,))

    def test_repeat_named_executes_do_zero_parse_plan_work(self, served):
        """The acceptance check: compile-cache counters over the wire."""
        with repro.connect(url=served.url) as conn:
            conn.prepare("cnt", "select count(*) from t where x >= ?")
            cur = conn.cursor()
            cur.execute_named("cnt", (0,))     # first bind may compile
            before = conn.stats()["compile_cache"]
            for i in range(10):
                cur.execute_named("cnt", (i,))
            after = conn.stats()["compile_cache"]
            assert after["misses"] == before["misses"]
            assert after["hits"] == before["hits"] + 10

    def test_execute_before_prepare_is_a_typed_error(self, served):
        with repro.connect(url=served.url) as conn:
            cur = conn.cursor()
            with pytest.raises(ProgrammingError, match="prepare"):
                cur.execute_named("never_prepared", (1,))

    def test_prepared_statements_are_per_connection(self, served):
        with repro.connect(url=served.url) as a, \
                repro.connect(url=served.url) as b:
            a.prepare("mine", "select count(*) from t")
            with pytest.raises(ProgrammingError):
                b.cursor().execute_named("mine")


class TestStats:
    def test_stats_exposes_engine_counters(self, served):
        with repro.connect(url=served.url) as conn:
            cur = conn.cursor()
            cur.execute("select count(*) from t where x >= ?", (10,))
            cur.execute("select count(*) from t where x >= ?", (20,))
            stats = conn.stats()
            assert stats["server"]["sessions"] >= 1
            assert stats["compile_cache"]["hits"] >= 1
            assert stats["pool"]["entries"] > 0
            assert stats["recycler"]["invocations"] >= 2
            assert stats["recycler"]["hits"] >= 1
            # Every lifetime counter crosses the wire, named as on
            # ``db.recycler.totals``.
            assert set(stats["recycler"]) == set(
                dataclasses.asdict(served.server.db.recycler.totals)
            ) | {"hits"}
            for key in ("spill_evictions", "promoted_hits",
                        "invalidations", "spill_errors"):
                assert stats["recycler"][key] == 0


class TestConcurrentClients:
    def test_many_clients_share_the_recycler(self, served):
        errors, hits = [], []

        def client(seed):
            try:
                with repro.connect(url=served.url) as conn:
                    cur = conn.cursor()
                    total = 0
                    for i in range(15):
                        cur.execute(
                            "select count(*) from t where x >= ?",
                            ((seed * 7 + i) % 50,))
                        cur.fetchone()
                        total += cur.stats["hits"]
                    hits.append(total)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(s,))
                   for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert sum(hits) > 0            # cross-client recycler reuse
        assert wait_until(
            lambda: served.server.session_count == 0)

    def test_concurrent_bad_sql_gets_typed_errors_everywhere(self, served):
        outcomes = []

        def client():
            try:
                with repro.connect(url=served.url) as conn:
                    cur = conn.cursor()
                    try:
                        cur.execute("select broken from nowhere")
                        outcomes.append("no-error")
                    except Error as exc:
                        outcomes.append(type(exc).__name__)
                    cur.execute("select count(*) from t")
                    assert cur.fetchone() == (2000,)
            except Exception as exc:  # pragma: no cover - diagnostic
                outcomes.append(f"crash:{exc}")

        threads = [threading.Thread(target=client) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(outcomes) == 5
        assert all(o not in ("no-error",) and not o.startswith("crash")
                   for o in outcomes)


class TestTimeoutsAndBackpressure:
    def test_idle_timeout_closes_connection(self, small_db):
        with serve_in_thread(small_db, idle_timeout=0.3) as handle:
            conn = repro.connect(url=handle.url)
            cur = conn.cursor()
            cur.execute("select count(*) from t")
            time.sleep(0.8)
            with pytest.raises(OperationalError):
                cur.execute("select count(*) from t")
                cur.execute("select count(*) from t")
            assert wait_until(
                lambda: handle.server.session_count == 0)

    def test_idle_timer_does_not_run_during_the_clients_query(
            self, small_db, monkeypatch):
        slow_first_statement(monkeypatch, 0.8)
        with serve_in_thread(small_db, idle_timeout=0.3) as handle, \
                repro.connect(url=handle.url) as conn:
            cur = conn.cursor()
            assert cur.execute("select count(*) from t").fetchone() == \
                (2000,)
            assert cur.execute("select count(*) from t where x >= ?",
                               (1905,)).fetchone() == (95,)

    def test_query_timeout_is_typed_and_reaps_the_session(
            self, small_db, monkeypatch):
        slow_first_statement(monkeypatch, 1.5)
        with serve_in_thread(small_db, query_timeout=0.3) as handle:
            conn = repro.connect(url=handle.url)
            cur = conn.cursor()
            t0 = time.monotonic()
            with pytest.raises(OperationalError, match="server limit"):
                cur.execute("select count(*) from t")
            assert time.monotonic() - t0 < 1.0   # not after the straggler
            assert handle.server.session_count == 1  # the straggler's
            with pytest.raises(OperationalError):     # connection closed
                cur.execute("select count(*) from t")
            conn.close()
            assert wait_until(lambda: handle.server.session_count == 0)
            with repro.connect(url=handle.url) as other:
                assert other.cursor().execute(
                    "select count(*) from t").fetchone() == (2000,)

    def test_query_timeout_error_is_the_last_frame(self, small_db,
                                                   monkeypatch):
        """After the timeout's error frame the socket reads EOF, and still
        EOF once the straggler has finished: its RESULT is never sent."""
        slow_first_statement(monkeypatch, 1.0)
        with serve_in_thread(small_db, query_timeout=0.3) as handle:
            sock = raw_hello(handle)
            try:
                send_message(sock, {"type": "execute",
                                    "sql": "select count(*) from t"})
                reply = recv_message(sock)
                assert reply["type"] == "error", reply
                assert "server limit" in reply["message"]
                assert sock.recv(1) == b""
                assert handle.server.session_count == 1  # the straggler's
                assert wait_until(lambda: handle.server.session_count == 0)
                assert sock.recv(1) == b""
            finally:
                sock.close()

    def test_query_timeout_counts_the_wait_for_a_slot(self, small_db,
                                                      monkeypatch):
        """With the one slot held past the deadline, a queued statement
        gets its error at its own deadline and never runs."""
        original, ran, running = Session.run_statement, [], threading.Event()

        def run_statement(self, stmt, params=None):
            ran.append(self.name)
            running.set()
            time.sleep(1.5)
            return original(self, stmt, params)

        monkeypatch.setattr(Session, "run_statement", run_statement)
        execute = {"type": "execute", "sql": "select count(*) from t"}
        with serve_in_thread(small_db, max_inflight=1,
                             query_timeout=0.5) as handle:
            first, second = raw_hello(handle), raw_hello(handle)
            try:
                send_message(first, execute)
                assert running.wait(5)
                t0 = time.monotonic()
                send_message(second, execute)
                reply = recv_message(second)
                assert time.monotonic() - t0 < 1.2   # not after the slot
                assert reply["type"] == "error", reply
                assert "server limit" in reply["message"]
                assert recv_message(first)["type"] == "error"
                assert wait_until(lambda: handle.server.session_count == 0)
            finally:
                first.close()
                second.close()
        assert len(ran) == 1

    @pytest.mark.parametrize("max_inflight", [1, 16])
    def test_max_inflight_caps_executing_statements(
            self, small_db, monkeypatch, max_inflight):
        """Four clients at once: a peak of one executing statement under
        ``max_inflight=1``; the same counter sees overlap without it."""
        original, lock = Session.run_statement, threading.Lock()
        inflight, peak = [0], [0]

        def run_statement(self, stmt, params=None):
            with lock:
                inflight[0] += 1
                peak[0] = max(peak[0], inflight[0])
            try:
                time.sleep(0.01)
                return original(self, stmt, params)
            finally:
                with lock:
                    inflight[0] -= 1

        monkeypatch.setattr(Session, "run_statement", run_statement)
        start = threading.Barrier(4)
        answers = []

        def client(url):
            with repro.connect(url=url) as conn:
                cur = conn.cursor()
                start.wait(timeout=10)
                for i in range(8):
                    cur.execute("select count(*) from t where x >= ?", (i,))
                    answers.append(cur.fetchone()[0])

        with serve_in_thread(small_db, max_inflight=max_inflight) as handle:
            threads = [threading.Thread(target=client, args=(handle.url,))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(answers) == 32
        if max_inflight == 1:
            assert peak[0] == 1
        else:
            assert peak[0] > 1

    def test_back_to_back_frames_are_answered_in_order(self, served):
        sock = raw_hello(served)
        try:
            sock.sendall(b"".join(encode_frame({
                "type": "execute",
                "sql": "select count(*) from t where x >= ?",
                "params": [lo]}) for lo in (0, 100, 200)))
            # One column of one cell each.
            assert [recv_message(sock)["columns"] for _ in range(3)] == \
                [[[2000]], [[1900]], [[1800]]]
        finally:
            sock.close()

    def test_one_engine_thread_still_serves_everyone(self, small_db):
        with serve_in_thread(small_db, max_inflight=1) as handle:
            results = []

            def client():
                with repro.connect(url=handle.url) as conn:
                    cur = conn.cursor()
                    for i in range(8):
                        cur.execute("select count(*) from t "
                                    "where x >= ?", (i,))
                        results.append(cur.fetchone()[0])

            threads = [threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 32


def test_server_threads_never_read_through_recv_exactly(served,
                                                       monkeypatch):
    """``protocol._recv_exactly`` is the client's blocking read, which a
    tracer books as waiting for the server; the server reads frames
    through its own buffered reader."""
    original, readers = protocol._recv_exactly, []

    def recv_exactly(sock, n):
        readers.append(threading.current_thread().name)
        return original(sock, n)

    monkeypatch.setattr(protocol, "_recv_exactly", recv_exactly)
    sock = raw_hello(served)
    try:
        send_message(sock, {"type": "execute",
                            "sql": "select count(*) from t"})
        assert recv_message(sock)["columns"] == [[2000]]
    finally:
        sock.close()
    assert readers
    assert [n for n in readers if n.startswith(THREAD_PREFIX)] == []


class TestDisconnectHygiene:
    def test_abrupt_disconnect_leaks_no_session(self, served):
        sock = raw_hello(served)
        assert wait_until(
            lambda: served.server.session_count == 1)
        # Vanish mid-EXECUTE: fire the query and slam the socket.
        send_message(sock, {"type": "execute",
                            "sql": "select sum(x) from t where x >= ?",
                            "params": [0]})
        sock.close()
        assert wait_until(
            lambda: served.server.session_count == 0)

    def test_disconnect_does_not_wedge_table_locks(self, served,
                                                   small_db):
        # After an abrupt disconnect, DML on the same table (which
        # takes the table write lock) must still proceed.
        sock = raw_hello(served)
        send_message(sock, {"type": "execute",
                            "sql": "select count(*) from t"})
        sock.close()
        assert wait_until(
            lambda: served.server.session_count == 0)
        small_db.insert("t", {"x": [99999], "g": [0]})
        with repro.connect(url=served.url) as conn:
            cur = conn.cursor()
            cur.execute("select count(*) from t")
            assert cur.fetchone() == (2001,)

    def test_client_close_is_idempotent(self, served):
        conn = repro.connect(url=served.url)
        conn.cursor().execute("select count(*) from t").fetchone()
        conn.close()
        conn.close()
        with pytest.raises(repro.InterfaceError):
            conn.cursor()

    def test_connection_close_closes_cursors(self, served):
        conn = repro.connect(url=served.url)
        cur = conn.cursor()
        cur.execute("select count(*) from t")
        conn.close()
        with pytest.raises(repro.InterfaceError):
            cur.fetchone()

    def test_dropped_cursors_are_not_kept_alive(self, served):
        # A long-lived connection opening a cursor per request must not
        # accumulate them (and their buffered rows) until disconnect.
        conn = repro.connect(url=served.url)
        try:
            for i in range(200):
                cur = conn.cursor()
                cur.execute("select x from t where x < ?", (i % 50 + 1,))
                assert len(cur.fetchall()) == i % 50 + 1
            del cur
            gc.collect()
            assert len(conn._cursors) == 0
            kept = conn.cursor()
            kept.execute("select count(*) from t")
        finally:
            conn.close()
        with pytest.raises(repro.InterfaceError):
            kept.fetchone()


class TestGracefulDrain:
    def test_drain_under_load(self, small_db):
        """Acceptance: stop accepting, finish in-flight, close all
        sessions, no tracebacks."""
        handle = serve_in_thread(small_db)
        completed, clean_errors, crashes = [], [], []
        start = threading.Barrier(5)

        def client():
            try:
                conn = repro.connect(url=handle.url)
                cur = conn.cursor()
                start.wait(timeout=10)
                for i in range(100):
                    cur.execute("select count(*) from t where x >= ?",
                                (i % 40,))
                    assert cur.fetchone()[0] > 0
                    completed.append(1)
            except (OperationalError, repro.InterfaceError) as exc:
                clean_errors.append(type(exc).__name__)
            except BaseException as exc:  # pragma: no cover
                crashes.append(repr(exc))

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        start.wait(timeout=10)
        time.sleep(0.1)                  # let the load build
        handle.shutdown()                # drain: blocks until complete
        for t in threads:
            t.join(timeout=30)
        assert crashes == []
        assert len(completed) > 0        # in-flight queries finished
        assert handle.server.session_count == 0
        # New connections are refused once drained.
        with pytest.raises(Error):
            NetConnection(handle.host, handle.port, connect_timeout=2)

    def test_drain_with_idle_connection(self, small_db):
        handle = serve_in_thread(small_db)
        conn = repro.connect(url=handle.url)
        conn.cursor().execute("select count(*) from t").fetchone()
        # The connection sits idle in a blocking read server-side;
        # drain must not wait for it to speak again.
        t0 = time.time()
        handle.shutdown()
        assert time.time() - t0 < 10
        assert handle.server.session_count == 0

    def test_drain_does_not_wait_for_a_client_that_never_says_hello(
            self, small_db):
        handle = serve_in_thread(small_db)
        sock = socket.create_connection((handle.host, handle.port),
                                        timeout=5)
        try:
            assert wait_until(
                lambda: handle.server.connections_served == 1)
            t0 = time.monotonic()
            handle.shutdown()
            assert time.monotonic() - t0 < 5
        finally:
            sock.close()

    def test_shutdown_is_idempotent(self, small_db):
        handle = serve_in_thread(small_db)
        handle.shutdown()
        handle.shutdown()


def count_rows(handle) -> int:
    conn = NetConnection(handle.host, handle.port, connect_timeout=5)
    try:
        return conn.cursor().execute("select count(*) from t").fetchone()[0]
    finally:
        conn.close()


class TestAcceptLoop:
    def test_a_failed_accept_does_not_stop_the_server(self, small_db,
                                                      monkeypatch):
        """accept() fails with EMFILE while the process is out of file
        descriptors; the server accepts again instead of going deaf."""
        original, failures = socket.socket.accept, []

        def accept(self):
            if not failures:
                failures.append(1)
                raise OSError(errno.EMFILE, "Too many open files")
            return original(self)

        monkeypatch.setattr(socket.socket, "accept", accept)
        with serve_in_thread(small_db) as handle:
            assert count_rows(handle) == 2000
        assert failures == [1]

    def test_a_thread_that_cannot_start_costs_one_connection(
            self, small_db, monkeypatch):
        """Out of threads, the server closes that one connection and
        serves the next."""
        original, refused = server_module._start_thread, []

        def start_thread(target, name, *args):
            if name.startswith("conn") and not refused:
                refused.append(name)
                raise RuntimeError("can't start new thread")
            return original(target, name, *args)

        monkeypatch.setattr(server_module, "_start_thread", start_thread)
        with serve_in_thread(small_db) as handle:
            with pytest.raises(OSError):
                count_rows(handle)
            assert count_rows(handle) == 2000
            assert wait_until(lambda: handle.server.session_count == 0)
        assert refused == ["conn-1"]


class TestConnectUrlFrontDoor:
    def test_connect_rejects_url_plus_database(self, small_db):
        with pytest.raises(repro.InterfaceError, match="not both"):
            repro.connect(url="repro://h:1", database=small_db)

    def test_connect_rejects_unknown_client_option(self, served):
        with pytest.raises(repro.InterfaceError, match="bad connect"):
            repro.connect(url=served.url, max_bytes=123)

    def test_connect_refused_maps_to_operational_error(self):
        with pytest.raises(OperationalError, match="cannot connect"):
            # Port 1 is essentially never listening.
            repro.connect(url="repro://127.0.0.1:1")

    def test_auth_token_enforced(self, small_db):
        with serve_in_thread(small_db, auth_token="sesame") as handle:
            with pytest.raises(OperationalError, match="authentication"):
                NetConnection(handle.host, handle.port)
            with NetConnection(handle.host, handle.port,
                               auth_token="sesame") as conn:
                cur = conn.cursor()
                cur.execute("select count(*) from t")
                assert cur.fetchone() == (2000,)


def test_oversized_result_rejected_cleanly(small_db):
    """A result too big for one frame is a typed error, not a hang."""
    with serve_in_thread(small_db, max_frame=8192) as handle:
        with NetConnection(handle.host, handle.port,
                           fetch_batch=100_000) as conn:
            cur = conn.cursor()
            with pytest.raises(OperationalError):
                cur.execute("select x, g from t")
            # server survives; smaller batches stream fine
        with NetConnection(handle.host, handle.port,
                           fetch_batch=100) as conn:
            cur = conn.cursor()
            cur.execute("select x from t where x < 500")
            assert len(cur.fetchall()) == 500
