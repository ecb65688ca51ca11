"""The network front door: an asyncio wire server over the engine.

One :class:`ReproServer` owns one :class:`~repro.db.Database` and
bridges N socket connections onto it.  Each connection is one
coroutine: read a frame, run it, write the reply, repeat.  Queries
execute on a thread pool via ``run_in_executor`` through the
connection's own :class:`~repro.server.session.Session`, so the
three-level locking contract (database → table → pool) and the shared
recycle pool behave exactly as they do for embedded multi-threaded
clients.

Per connection the server keeps *named prepared statements*: PREPARE
stores a :class:`~repro.db.PreparedStatement` under a client-chosen
name, and every later EXECUTE of that name binds parameters straight
into the statement's compiled plan — zero parse/plan work on repeats,
one recycler lineage shared with every other client running the same
template (the paper's multi-user traffic pattern, §3.3/§7.3).

Backpressure needs no machinery: a connection runs one frame at a time
and reads the next only after answering, so a flooding client throttles
itself via TCP; ``max_inflight`` is the number of engine threads, the
one cap on concurrently executing queries.  Replies come back in request
order because there is nothing to reorder.

The server holds no lock of its own: the open sessions, the connections
and every per-connection table are touched only on the event loop
(executor futures run their done-callbacks there too).

Graceful drain (:meth:`ReproServer.shutdown`, or SIGTERM under
:func:`serve_forever`): stop accepting, cancel every pending read, let
every running query finish and its reply flush, close each session,
then tear down the executor.  A client vanishing mid-EXECUTE takes the
same path: the query completes on its thread (releasing table locks
normally), the reply write fails, and the session closes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

import numpy as np

from repro.db import Database
from repro.errors import (
    InterfaceError,
    OperationalError,
    ProgrammingError,
)
from repro.mal.operators.results import ResultSet
from repro.net.protocol import (
    DEFAULT_FETCH_BATCH,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    error_message,
    read_message,
    write_message,
)
from repro.server.session import Session

log = logging.getLogger("repro.net")

#: Upper bound on named prepared statements per connection.
MAX_PREPARED_PER_CONN = 256

#: Result sets kept fetchable per connection (oldest dropped first).
MAX_PENDING_RESULTS = 8


class _Connection:
    """Per-socket server state (event-loop confined)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, conn_id: int):
        self.reader = reader
        self.writer = writer
        self.id = conn_id
        self.task = asyncio.current_task()
        self.session: Optional[Session] = None      # opened after HELLO
        self.prepared: Dict[str, Any] = {}   # name -> PreparedStatement
        #: rid -> the unfinished result's columns and rows sent so far.
        self.results: Dict[int, Dict[str, Any]] = {}
        self._next_rid = 1
        #: The pending frame read, which drain cancels.
        self.read_task: Optional[asyncio.Task] = None

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


class ReproServer:
    """An asyncio TCP server speaking the repro wire protocol.

    Args:
        db: the engine to serve (the server does not own it unless
            ``owns_db=True`` — then :meth:`shutdown` closes it too).
        host/port: bind address; port 0 asks the OS for a free port
            (read the result from :attr:`port` after :meth:`start`).
        max_inflight: engine threads, i.e. the cap on concurrently
            *executing* queries across all connections.
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
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, max_inflight),
            thread_name_prefix="repro-net")
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: set = set()
        self._sessions: set = set()
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._conn_ids = iter(range(1, 1 << 62))
        self.connections_served = 0
        self.queries_served = 0

    @property
    def session_count(self) -> int:
        """Open sessions, including ones a timed-out query still holds."""
        return len(self._sessions)

    def _close_session(self, session: Session) -> None:
        self._sessions.discard(session)
        session.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ReproServer":
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        log.info("listening on %s:%d", self.host, self.port)
        return self

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close all."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        # Kick every connection out of its wait for a client before
        # waiting on anything; a running query is not cancelled — its
        # connection answers it, then sees the drain and ends.
        for conn in self._conns:
            if conn.read_task is not None:
                conn.read_task.cancel()
        await asyncio.gather(*[conn.task for conn in self._conns],
                             return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)
        # Sessions of timed-out queries whose threads just finished.
        for session in list(self._sessions):
            self._close_session(session)
        if self.owns_db:
            self.db.close()
        self._stopped.set()

    async def wait_shutdown(self) -> None:
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # One connection: handshake, then read → dispatch → write
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Connection(reader, writer, next(self._conn_ids))
        self._conns.add(conn)
        self.connections_served += 1
        try:
            if await self._handshake(conn):
                await self._serve(conn)
        except Exception:                     # pragma: no cover - guard
            log.exception("connection %d handler failed", conn.id)
        finally:
            if conn.session is not None:
                self._close_session(conn.session)
            self._conns.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(self, conn: _Connection) -> bool:
        """HELLO/WELCOME exchange: version check, optional auth."""
        msg = await self._read(conn, self.idle_timeout or 30.0)
        if msg is None:
            return False
        if msg["type"] != "hello":
            error = ProtocolError("expected a hello frame first")
        elif msg.get("version") != PROTOCOL_VERSION:
            error = InterfaceError(
                f"protocol version {msg.get('version')!r} unsupported "
                f"(server speaks {PROTOCOL_VERSION})")
        elif self.auth_token is not None and \
                msg.get("token") != self.auth_token:
            error = OperationalError("authentication failed")
        else:
            conn.session = self.db.session(
                f"net-{conn.id}-{msg.get('client', 'client')}")
            self._sessions.add(conn.session)
            return await self._write(conn, {
                "type": "welcome", "version": PROTOCOL_VERSION,
                "session": conn.session.name,
            })
        await self._write(conn, error_message(error))
        return False

    async def _serve(self, conn: _Connection) -> None:
        """Answer frames one at a time until EOF, goodbye, drain or a
        timed-out query (which takes ``conn.session`` away)."""
        while conn.session is not None:
            msg = await self._read(conn, self.idle_timeout)
            if msg is None:
                return
            if msg["type"] == "goodbye":
                await self._write(conn, {"type": "bye"})
                return
            if not await self._write(conn, await self._dispatch(conn, msg)):
                return

    async def _read(self, conn: _Connection,
                    timeout: Optional[float]) -> Optional[Dict[str, Any]]:
        """The next frame, or None when the connection should end.

        None covers EOF, a reset, a drain, a timeout and a bad frame;
        the last two are answered with a typed error first.  The pending
        read is registered as ``conn.read_task`` so drain can cancel it.
        """
        if self._draining:
            return None
        read = conn.read_task = asyncio.ensure_future(
            read_message(conn.reader, max_frame=self.max_frame))
        try:
            done, _ = await asyncio.wait((read,), timeout=timeout)
        finally:
            conn.read_task = None
            read.cancel()                     # no-op once the read is done
        if read.cancelled():                  # drain kicked us out
            return None
        if not done:
            error: Exception = OperationalError(
                f"idle timeout ({timeout}s) — closing connection")
        else:
            try:
                return read.result()
            except ProtocolError as exc:
                error = exc
            except ConnectionError:           # reset by the client
                return None
        await self._write(conn, error_message(error))
        return None

    async def _write(self, conn: _Connection,
                     message: Dict[str, Any]) -> bool:
        """Send one reply; False once the socket is gone."""
        try:
            try:
                await write_message(conn.writer, message,
                                    max_frame=self.max_frame)
            except ProtocolError as exc:
                # The reply itself cannot be framed (e.g. a result batch
                # bigger than max_frame): degrade to a typed error so
                # the client is told instead of hung.
                await write_message(conn.writer, error_message(exc))
        except (ConnectionError, OSError):
            return False
        return True

    # ------------------------------------------------------------------
    # Message dispatch (never raises)
    # ------------------------------------------------------------------
    async def _dispatch(self, conn: _Connection,
                        msg: Dict[str, Any]) -> Dict[str, Any]:
        try:
            mtype = msg["type"]
            if mtype == "prepare":
                return self._on_prepare(conn, msg)
            if mtype == "execute":
                return await self._on_execute(conn, msg)
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

    async def _on_execute(self, conn: _Connection,
                          msg: Dict[str, Any]) -> Dict[str, Any]:
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
        session = conn.session

        def work():
            result = session.run_statement(stmt, params)
            value = result.value
            if isinstance(value, ResultSet):
                return value.columns, value.description, result.stats
            return None, None, result.stats

        fut = asyncio.get_running_loop().run_in_executor(
            self._executor, work)
        try:
            columns, description, stats = await asyncio.wait_for(
                asyncio.shield(fut), self.query_timeout)
        except asyncio.TimeoutError:
            # The engine thread cannot be interrupted: end the
            # connection and reap the session when the straggler
            # finishes (it holds table locks until then, releasing
            # normally).
            conn.session = None
            fut.add_done_callback(lambda _f: self._close_session(session))
            raise OperationalError(
                f"query exceeded the {self.query_timeout}s "
                "server limit; connection closed") from None
        self.queries_served += 1
        response: Dict[str, Any] = {
            "type": "result",
            "stats": stats.as_dict(),
            "description": description,
        }
        if columns is None:
            response.update(rowcount=-1, result_id=0, columns=[],
                            complete=True)
        else:
            response.update(conn.new_result(columns, batch))
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
        db = self.db
        compile_stats = db.compile_cache_stats
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
        recycler = db.recycler
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
# Entry points: foreground (signal-driven) and background thread
# ----------------------------------------------------------------------
async def serve_forever(db: Database, host: str = "127.0.0.1",
                        port: int = 0, *, ready=None,
                        **server_kwargs) -> None:
    """Run a server until SIGTERM/SIGINT, then drain gracefully.

    *ready*, when given, is called with the started :class:`ReproServer`
    once the socket is bound (the bench driver prints the port from it).
    """
    import signal

    server = ReproServer(db, host, port, **server_kwargs)
    await server.start()
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
    await server.shutdown()


class ServerHandle:
    """A server running on a background thread (tests, embedding).

    Obtained from :func:`serve_in_thread`; exposes the bound address
    and a thread-safe :meth:`shutdown`.
    """

    def __init__(self):
        self.server: Optional[ReproServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"repro://{self.host}:{self.port}"

    def shutdown(self, timeout: float = 30.0) -> None:
        """Drain the server and join its thread (idempotent)."""
        if self.loop is None or self.thread is None:
            return
        if self.thread.is_alive():
            fut = asyncio.run_coroutine_threadsafe(
                self.server.shutdown(), self.loop)
            fut.result(timeout=timeout)
        self.thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def serve_in_thread(db: Database, host: str = "127.0.0.1", port: int = 0,
                    **server_kwargs) -> ServerHandle:
    """Start a :class:`ReproServer` on a daemon thread and wait for bind."""
    handle = ServerHandle()

    async def _amain():
        try:
            server = ReproServer(db, host, port, **server_kwargs)
            await server.start()
            handle.server = server
            handle.loop = asyncio.get_running_loop()
            handle._ready.set()
            await server.wait_shutdown()
        except BaseException as exc:
            handle._error = exc
            handle._ready.set()
            raise

    def _run():
        try:
            asyncio.run(_amain())
        except Exception:
            pass                              # surfaced via handle._error

    handle.thread = threading.Thread(
        target=_run, name="repro-net-server", daemon=True)
    handle.thread.start()
    if not handle._ready.wait(timeout=30.0):
        raise OperationalError("server failed to start within 30s")
    if handle._error is not None:
        raise OperationalError(
            f"server failed to start: {handle._error}")
    return handle
