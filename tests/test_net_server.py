"""End-to-end network server tests: queries, prepared statements,
stats, backpressure, timeouts, graceful drain, disconnect hygiene."""

from __future__ import annotations

import dataclasses
import socket
import threading
import time

import pytest

import repro
from repro import ExecutionStats
from repro.errors import Error, OperationalError, ProgrammingError
from repro.net.client import NetConnection
from repro.net.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    recv_message,
    send_message,
)
from repro.net.server import serve_in_thread


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
        with serve_in_thread(small_db, fetch_batch=64) as handle:
            with repro.connect(url=handle.url, fetch_batch=64) as conn:
                cur = conn.cursor()
                cur.execute("select x from t where x < 1000")
                rows = cur.fetchall()
                assert len(rows) == 1000
                assert rows[0] == (0,) and rows[-1] == (999,)
                assert cur.rowcount == 1000

    def test_fetchmany_across_batches(self, small_db):
        with serve_in_thread(small_db, fetch_batch=50) as handle:
            with repro.connect(url=handle.url, fetch_batch=50) as conn:
                cur = conn.cursor()
                cur.execute("select x from t where x < 130")
                assert len(cur.fetchmany(70)) == 70
                assert len(cur.fetchmany(70)) == 60
                assert cur.fetchmany(70) == []

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

    def test_dbapi_parity_with_embedded(self, small_db, served):
        sql = "select g, count(*) as n from t where x >= ? group by g " \
              "order by g"
        with repro.connect(database=small_db) as emb:
            expected = emb.cursor().execute(sql, (250,)).fetchall()
        with repro.connect(url=served.url) as conn:
            got = conn.cursor().execute(sql, (250,)).fetchall()
        assert got == expected


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
            lambda: served.server.manager.session_count == 0)

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
                lambda: handle.server.manager.session_count == 0)

    def test_tiny_admission_window_still_serves_everyone(self, small_db):
        with serve_in_thread(small_db, max_inflight=1,
                             window=1) as handle:
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


class TestDisconnectHygiene:
    def test_abrupt_disconnect_leaks_no_session(self, served):
        sock = socket.create_connection(
            (served.host, served.port), timeout=5)
        send_message(sock, {"type": "hello",
                            "version": PROTOCOL_VERSION,
                            "codecs": ["json"]})
        assert recv_message(sock)["type"] == "welcome"
        assert wait_until(
            lambda: served.server.manager.session_count == 1)
        # Vanish mid-EXECUTE: fire the query and slam the socket.
        send_message(sock, {"type": "execute",
                            "sql": "select sum(x) from t where x >= ?",
                            "params": [0]})
        sock.close()
        assert wait_until(
            lambda: served.server.manager.session_count == 0)

    def test_disconnect_does_not_wedge_table_locks(self, served,
                                                   small_db):
        # After an abrupt disconnect, DML on the same table (which
        # takes the table write lock) must still proceed.
        sock = socket.create_connection(
            (served.host, served.port), timeout=5)
        send_message(sock, {"type": "hello",
                            "version": PROTOCOL_VERSION,
                            "codecs": ["json"]})
        recv_message(sock)
        send_message(sock, {"type": "execute",
                            "sql": "select count(*) from t"})
        sock.close()
        assert wait_until(
            lambda: served.server.manager.session_count == 0)
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
        assert handle.server.manager.session_count == 0
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
        assert handle.server.manager.session_count == 0

    def test_shutdown_is_idempotent(self, small_db):
        handle = serve_in_thread(small_db)
        handle.shutdown()
        handle.shutdown()


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
    with serve_in_thread(small_db, max_frame=8192,
                         fetch_batch=100_000) as handle:
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
