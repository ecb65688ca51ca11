"""The network front door: a wire server over the engine.

One :class:`ReproServer` owns one :class:`~repro.db.Database` and
serves each accepted socket on a thread of its own, from HELLO to
close: blocking frame read → dispatch → the statement through the
connection's own :class:`~repro.server.session.Session` on that same
thread → one ``sendall``.  The three-level locking contract (database
→ table → pool) and the shared recycle pool behave exactly as for
embedded multi-threaded clients, and a statement crosses no thread.

Per connection the server keeps *named prepared statements*: PREPARE
stores a :class:`~repro.db.PreparedStatement` under a client-chosen
name, and every later EXECUTE of that name binds parameters straight
into the statement's compiled plan — zero parse/plan work on repeats,
one recycler lineage shared with every other client running the same
template (the paper's multi-user traffic pattern, §3.3/§7.3).

A connection reads its next frame only after answering the last, so a
flooding client throttles itself via TCP and replies keep request
order.  ``max_inflight`` is a semaphore around statement execution.
A connection's statements and result sets belong to its thread; the
server lock guards only the live connections and the counters.

Graceful drain (:meth:`ReproServer.shutdown`, or SIGTERM under
:func:`serve_forever`): stop accepting, shut every connection's read
side (a thread waiting for a frame reads EOF), let running statements
answer, join the threads; each closes its session on the way out, as
it does when a client vanishes mid-EXECUTE.
"""

from __future__ import annotations

import contextlib
import dataclasses
import socket
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.db import Database
from repro.errors import (
    InterfaceError,
    OperationalError,
    ProgrammingError,
)
from repro.mal.operators.results import ResultSet
from repro.net import protocol
from repro.net.protocol import (
    DEFAULT_FETCH_BATCH,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    error_message,
)
from repro.server.session import Session

#: Upper bound on named prepared statements per connection.
MAX_PREPARED_PER_CONN = 256

#: Result sets kept fetchable per connection (oldest dropped first).
MAX_PENDING_RESULTS = 8

#: Every thread a server starts is named with this prefix.
THREAD_PREFIX = "repro-net"


class _Connection:
    """One accepted socket and its session's state (owned by its thread)."""

    def __init__(self, sock: socket.socket, conn_id: int):
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.id = conn_id
        self.session: Optional[Session] = None      # opened after HELLO
        self.prepared: Dict[str, Any] = {}   # name -> PreparedStatement
        #: rid -> the unfinished result's columns and rows sent so far.
        self.results: Dict[int, Dict[str, Any]] = {}
        self._next_rid = 1
        #: Set by the watchdog once it has answered a timed-out statement.
        self.abandoned = False

    def new_result(self, columns: List[np.ndarray],
                   batch: int) -> Dict[str, Any]:
        """Register a result set, returning the RESULT message fields."""
        rid = self._next_rid
        self._next_rid += 1
        rowcount = len(columns[0]) if columns else 0
        out = {"result_id": rid, "rowcount": rowcount,
               "columns": [c[:batch] for c in columns],
               "complete": rowcount <= batch}
        if rowcount > batch:
            self.results[rid] = {"columns": columns, "pos": batch}
            while len(self.results) > MAX_PENDING_RESULTS:
                self.results.pop(next(iter(self.results)))
        return out


def _row_count(msg: Dict[str, Any], field: str) -> int:
    """A client-sent row count: an int ≥ 1, or the default when absent."""
    n = msg.get(field, DEFAULT_FETCH_BATCH)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ProgrammingError(
            f"{field!r} must be a positive row count, not {n!r}")
    return n


def _start_thread(target, name: str, *args) -> threading.Thread:
    thread = threading.Thread(target=target, args=args,
                              name=f"{THREAD_PREFIX}-{name}", daemon=True)
    thread.start()
    return thread


class _Watchdog:
    """The one thread that enforces ``query_timeout``.

    A connection is armed from before its wait for an execution slot
    until its statement returns.  All budgets are equal, so deadlines
    fall due in arming order.  On expiry the watchdog sends the typed
    error and shuts the socket; the engine cannot be interrupted, so the
    connection's thread finishes the statement, sends nothing, and
    closes the session on its way out.
    """

    def __init__(self, timeout: float):
        self.timeout = timeout
        self._armed: Dict[_Connection, float] = {}
        self._cond = threading.Condition()
        self._stopping = False
        self._thread = _start_thread(self._run, "watchdog")

    def arm(self, conn: _Connection) -> None:
        with self._cond:
            self._armed[conn] = time.monotonic() + self.timeout
            if len(self._armed) == 1:         # the watchdog may be idle
                self._cond.notify()

    def disarm(self, conn: _Connection) -> None:
        with self._cond:
            self._armed.pop(conn, None)

    def stop(self) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify()
        self._thread.join()

    def _run(self) -> None:
        with self._cond:
            while not self._stopping:
                if not self._armed:
                    self._cond.wait()
                    continue
                conn, deadline = next(iter(self._armed.items()))
                left = deadline - time.monotonic()
                if left > 0:
                    self._cond.wait(left)
                    continue
                # Under the lock: the statement's thread cannot disarm,
                # finish and close the socket mid-send.  The send never
                # blocks, so a client that stopped reading cannot stall
                # the watchdog; it then gets a cut frame, then EOF.
                del self._armed[conn]
                conn.abandoned = True
                frame = protocol.encode_frame(error_message(OperationalError(
                    f"query exceeded the {self.timeout}s server limit; "
                    "connection closed")))
                with contextlib.suppress(OSError):  # a full buffer, a reset
                    conn.sock.send(frame, socket.MSG_DONTWAIT)
                with contextlib.suppress(OSError):
                    conn.sock.shutdown(socket.SHUT_RDWR)


class ReproServer:
    """A threaded TCP server speaking the repro wire protocol.

    Args:
        db: the engine to serve (the server does not own it unless
            ``owns_db=True`` — then :meth:`shutdown` closes it too).
        host/port: bind address; port 0 asks the OS for a free port
            (read the result from :attr:`port` after :meth:`start`).
        max_inflight: the cap on concurrently *executing* statements
            across all connections (a semaphore around execution).
        idle_timeout: seconds a connection may sit between frames
            before the server closes it (None = forever).
        query_timeout: seconds one query may execute before the client
            gets an ``OperationalError`` and the connection is closed
            (the engine thread cannot be interrupted, so its session is
            reaped only once the query finishes; None = no limit).
        auth_token: when set, HELLO frames must carry it.
        max_frame: byte ceiling on frames the server reads and writes.
    """

    def __init__(self, db: Database, host: str = "127.0.0.1",
                 port: int = 0, *,
                 max_inflight: int = 16,
                 idle_timeout: Optional[float] = None,
                 query_timeout: Optional[float] = None,
                 auth_token: Optional[str] = None,
                 max_frame: int = MAX_FRAME_BYTES,
                 owns_db: bool = False):
        self.db = db
        self.host = host
        self.port = port
        self.idle_timeout = idle_timeout
        self.query_timeout = query_timeout
        self.auth_token = auth_token
        self.max_frame = max_frame
        self.owns_db = owns_db
        self._slots = threading.BoundedSemaphore(max(1, max_inflight))
        self._lock = threading.Lock()
        self._conns: set = set()
        #: Connection threads; the accept thread prunes the finished ones.
        self._threads: List[threading.Thread] = []
        self._listener = self._accept_thread = None
        self._watchdog: Optional[_Watchdog] = None
        self._draining = False
        self.connections_served = 0
        self.queries_served = 0

    @property
    def session_count(self) -> int:
        """Open sessions, including ones a timed-out query still holds."""
        with self._lock:
            return sum(conn.session is not None for conn in self._conns)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Bind, then accept on a thread of its own."""
        family, _, _, _, address = socket.getaddrinfo(
            self.host, self.port, type=socket.SOCK_STREAM)[0]
        self._listener = socket.create_server(address, family=family,
                                              backlog=100)
        self.port = self._listener.getsockname()[1]
        if self.query_timeout is not None:
            self._watchdog = _Watchdog(self.query_timeout)
        self._accept_thread = _start_thread(self._accept, "accept")
        return self

    def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close all."""
        with self._lock:
            self._draining = True
        if self._listener is None:
            return
        with contextlib.suppress(OSError):
            # Wakes the blocked accept() (it fails with EINVAL).
            self._listener.shutdown(socket.SHUT_RDWR)
        self._accept_thread.join()
        self._listener.close()
        # Every connection waiting for a frame reads EOF now; a running
        # statement is not interrupted — its thread answers it, then
        # reads EOF and ends.
        with self._lock:
            for conn in self._conns:
                with contextlib.suppress(OSError):
                    conn.sock.shutdown(socket.SHUT_RD)
        for thread in self._threads:
            thread.join()
        if self._watchdog is not None:
            self._watchdog.stop()
        if self.owns_db:
            self.db.close()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                if self._draining:
                    return                    # drain shut the listener
                time.sleep(0.1)               # e.g. out of descriptors
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.connections_served += 1      # written by this thread only
            conn = _Connection(sock, self.connections_served)
            self._threads = [t for t in self._threads if t.is_alive()]
            try:
                self._threads.append(
                    _start_thread(self._serve, f"conn-{conn.id}", conn))
            except RuntimeError:              # out of threads: turn it away
                conn.rfile.close()
                sock.close()

    # ------------------------------------------------------------------
    # One connection: handshake, then read → dispatch → write
    # ------------------------------------------------------------------
    def _serve(self, conn: _Connection) -> None:
        """Answer frames one at a time until EOF, goodbye, drain or a
        timed-out statement."""
        with self._lock:
            # Registered before its first read: drain either shuts this
            # socket's read side or is seen by that read.
            self._conns.add(conn)
        try:
            if not self._handshake(conn):
                return
            while True:
                msg = self._read(conn, self.idle_timeout)
                if msg is None:
                    return
                if msg["type"] == "goodbye":
                    self._write(conn, {"type": "bye"})
                    return
                reply = self._dispatch(conn, msg)
                if conn.abandoned or not self._write(conn, reply):
                    return
        finally:
            if conn.session is not None:
                conn.session.close()
            with self._lock:
                self._conns.discard(conn)
                conn.rfile.close()
                conn.sock.close()

    def _handshake(self, conn: _Connection) -> bool:
        """HELLO/WELCOME exchange: version check, optional auth."""
        msg = self._read(conn, self.idle_timeout or 30.0)
        if msg is None:
            return False
        try:
            if msg["type"] != "hello":
                raise ProtocolError("expected a hello frame first")
            if msg.get("version") != PROTOCOL_VERSION:
                raise InterfaceError(
                    f"protocol version {msg.get('version')!r} unsupported "
                    f"(server speaks {PROTOCOL_VERSION})")
            if self.auth_token is not None and \
                    msg.get("token") != self.auth_token:
                raise OperationalError("authentication failed")
            conn.session = self.db.session(
                f"net-{conn.id}-{msg.get('client', 'client')}")
        except Exception as exc:              # a closed engine, too
            self._write(conn, error_message(exc))
            return False
        return self._write(conn, {
            "type": "welcome", "version": PROTOCOL_VERSION,
            "session": conn.session.name,
        })

    def _read(self, conn: _Connection,
              timeout: Optional[float]) -> Optional[Dict[str, Any]]:
        """The next frame, or None when the connection should end.

        None covers EOF, a reset, a drain, a timeout and a bad frame;
        the last two are answered with a typed error first.  The timeout
        runs only here, while the server waits for the client.
        """
        if self._draining:
            return None
        if timeout is not None:
            conn.sock.settimeout(timeout)
        try:
            return protocol.read_frame(conn.rfile, max_frame=self.max_frame)
        except ProtocolError as exc:
            error: Exception = exc
        except TimeoutError:
            error = OperationalError(
                f"idle timeout ({timeout}s) — closing connection")
        except OSError:                       # reset by the client
            return None
        finally:
            if timeout is not None:
                conn.sock.settimeout(None)
        self._write(conn, error_message(error))
        return None

    def _write(self, conn: _Connection, message: Dict[str, Any]) -> bool:
        """Send one reply; False once the socket is gone."""
        try:
            try:
                frame = protocol.encode_frame(message,
                                              max_frame=self.max_frame)
            except ProtocolError as exc:
                # The reply itself cannot be framed (e.g. a result batch
                # bigger than max_frame): degrade to a typed error so
                # the client is told instead of hung.
                frame = protocol.encode_frame(error_message(exc))
            conn.sock.sendall(frame)
        except OSError:
            return False
        return True

    def _dispatch(self, conn: _Connection,
                  msg: Dict[str, Any]) -> Dict[str, Any]:
        """The reply to one frame (never raises)."""
        try:
            mtype = msg["type"]
            if mtype == "prepare":
                return self._on_prepare(conn, msg)
            if mtype == "execute":
                return self._on_execute(conn, msg)
            if mtype == "fetch":
                return self._on_fetch(conn, msg)
            if mtype == "close_stmt":
                conn.prepared.pop(str(msg.get("name", "")), None)
                return {"type": "ok"}
            if mtype == "stats":
                return self._on_stats()
            raise ProtocolError(
                f"message type {mtype!r} is not valid client-to-server")
        except Exception as exc:
            return error_message(exc)

    def _on_prepare(self, conn: _Connection,
                    msg: Dict[str, Any]) -> Dict[str, Any]:
        name = msg.get("name")
        sql = msg.get("sql")
        if not name or not isinstance(name, str) or \
                not sql or not isinstance(sql, str):
            raise ProgrammingError(
                "prepare needs a statement name and sql text")
        if name not in conn.prepared and \
                len(conn.prepared) >= MAX_PREPARED_PER_CONN:
            raise InterfaceError(
                f"too many prepared statements "
                f"(limit {MAX_PREPARED_PER_CONN}); close_stmt some")
        stmt = self.db.prepare(sql)
        conn.prepared[name] = stmt
        return {
            "type": "prepared", "name": name,
            "n_placeholders": stmt.n_placeholders,
            "paramstyle": stmt.paramstyle,
        }

    def _on_execute(self, conn: _Connection,
                    msg: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The RESULT frame; None once the watchdog has answered."""
        params = msg.get("params")
        batch = _row_count(msg, "fetch")
        name = msg.get("name")
        if name is not None:
            stmt = conn.prepared.get(name)
            if stmt is None:
                raise ProgrammingError(
                    f"no prepared statement named {name!r} "
                    "(execute before prepare?)")
        else:
            sql = msg.get("sql")
            if not sql or not isinstance(sql, str):
                raise ProgrammingError(
                    "execute needs either a prepared-statement name "
                    "or sql text")
            stmt = self.db.prepare(sql)
        watchdog = self._watchdog
        if watchdog is not None:              # the deadline includes the
            watchdog.arm(conn)                # wait for a slot
        try:
            with self._slots:
                if conn.abandoned:            # expired waiting for a slot
                    return None
                result = conn.session.run_statement(stmt, params)
        finally:
            if watchdog is not None:
                watchdog.disarm(conn)
        with self._lock:
            self.queries_served += 1
        value = result.value
        response = {"type": "result", "stats": result.stats.as_dict(),
                    "description": None, "result_id": 0, "rowcount": -1,
                    "columns": [], "complete": True}
        if isinstance(value, ResultSet):
            response["description"] = value.description
            response.update(conn.new_result(value.columns, batch))
        return response

    def _on_fetch(self, conn: _Connection,
                  msg: Dict[str, Any]) -> Dict[str, Any]:
        rid = msg.get("result_id")
        state = conn.results.get(rid)
        if state is None:
            raise ProgrammingError(
                f"no fetchable result set #{rid!r} on this connection")
        n = _row_count(msg, "n")
        columns, pos = state["columns"], state["pos"]
        state["pos"] = pos + n
        complete = state["pos"] >= len(columns[0])
        if complete:
            del conn.results[rid]
        return {"type": "rows", "result_id": rid,
                "columns": [c[pos:pos + n] for c in columns],
                "complete": complete}

    def _on_stats(self) -> Dict[str, Any]:
        """Engine + server counters for the STATS wire message."""
        compile_stats = self.db.compile_cache_stats
        payload: Dict[str, Any] = {
            "type": "stats_result",
            "server": {
                "sessions": self.session_count,
                "connections_served": self.connections_served,
                "queries_served": self.queries_served,
                "draining": self._draining,
            },
            "compile_cache": {
                "hits": compile_stats.hits,
                "misses": compile_stats.misses,
                "hit_ratio": compile_stats.hit_ratio,
            },
            "pool": None,
            "recycler": None,
        }
        recycler = self.db.recycler
        if recycler is not None:
            pool = recycler.pool
            payload["pool"] = {
                "bytes": pool.total_bytes,
                "entries": len(pool),
                "spilled_bytes": pool.spilled_bytes,
            }
            totals = recycler.totals
            payload["recycler"] = {
                **dataclasses.asdict(totals),
                "hits": totals.exact_hits + totals.subsumed_hits,
            }
        return payload


# ----------------------------------------------------------------------
# Entry points: foreground (signal-driven) and background
# ----------------------------------------------------------------------
async def serve_forever(db: Database, host: str = "127.0.0.1",
                        port: int = 0, *, ready=None,
                        **server_kwargs) -> None:
    """Run a server until SIGTERM/SIGINT, then drain gracefully.

    A coroutine only so that its event loop owns the signal handlers.
    *ready*, when given, is called with the started :class:`ReproServer`
    once the socket is bound (the bench driver prints the port from it).
    """
    import asyncio
    import signal

    server = ReproServer(db, host, port, **server_kwargs).start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass                              # non-main thread / platform
    if ready is not None:
        ready(server)
    await stop.wait()
    server.shutdown()


class ServerHandle:
    """A started server from :func:`serve_in_thread`: its bound address
    and a :meth:`shutdown` that drains it; a context manager."""

    def __init__(self, server: ReproServer):
        self.server = server
        self.host, self.port = server.host, server.port
        self.url = f"repro://{self.host}:{self.port}"

    def shutdown(self) -> None:
        """Drain the server and join its threads (idempotent)."""
        self.server.shutdown()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def serve_in_thread(db: Database, host: str = "127.0.0.1", port: int = 0,
                    **server_kwargs) -> ServerHandle:
    """Start a :class:`ReproServer` in the background (its accept and
    connection threads) and return once the socket is bound."""
    return ServerHandle(ReproServer(db, host, port, **server_kwargs).start())
