"""The network front door: an asyncio wire server over the engine.

One :class:`ReproServer` owns one :class:`~repro.db.Database` and
bridges N socket connections onto it.  The event loop only shuffles
frames; every query executes on a thread pool via ``run_in_executor``
through a per-connection :class:`~repro.server.session.Session` opened
on the existing thread-backed :class:`~repro.server.manager.SessionManager`
— so the whole three-level locking contract (database → table → pool)
and the shared recycle pool behave exactly as they do for
embedded multi-threaded clients.

Per connection the server keeps *named prepared statements*: PREPARE
stores a :class:`~repro.db.PreparedStatement` under a client-chosen
name, and every later EXECUTE of that name binds parameters straight
into the statement's compiled plan — zero parse/plan work on repeats,
one recycler lineage shared with every other client running the same
template (the paper's multi-user traffic pattern, §3.3/§7.3).

Backpressure is two semaphores deep:

* a **per-connection window** bounds how many frames one client may
  have in flight (the reader stops pulling frames off the socket when
  the window is full, so a flooding client throttles itself via TCP);
* a **global admission semaphore** bounds how many queries execute
  concurrently across *all* connections, keeping the thread pool and
  the pool lock from being convoyed by a thundering herd.

Responses always return in request order (a writer task drains an
ordered queue of dispatch futures), and executes on one connection are
serialised — sessions are single-threaded by contract.

Graceful drain (:meth:`ReproServer.shutdown`, or SIGTERM under
:func:`serve_forever`): stop accepting, cancel idle reads, let every
in-flight query finish and its response flush, close each session
through the manager, then tear down the executor.  A client vanishing
mid-EXECUTE takes the same path: the query completes on its thread
(releasing table locks normally), the response write fails silently,
and the session closes — nothing leaks.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro.db import Database
from repro.errors import (
    InterfaceError,
    OperationalError,
    ProgrammingError,
)
from repro.mal.operators.results import ResultSet
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    error_message,
    read_message,
    write_message,
)
from repro.server.manager import SessionManager

log = logging.getLogger("repro.net")

#: Upper bound on named prepared statements per connection.
MAX_PREPARED_PER_CONN = 256

#: Result sets kept fetchable per connection (oldest dropped first).
MAX_PENDING_RESULTS = 8


class _Connection:
    """Per-socket server state (event-loop confined unless noted)."""

    def __init__(self, server: "ReproServer", writer: asyncio.StreamWriter,
                 conn_id: int):
        self.server = server
        self.writer = writer
        self.id = conn_id
        self.session = None                  # opened after HELLO
        self.prepared: Dict[str, Any] = {}   # name -> PreparedStatement
        self.results: Dict[int, Dict[str, Any]] = {}  # rid -> cursor state
        self._next_rid = 1
        self.closing = False
        self.dead = False                    # write side failed
        #: Serialises query execution on this connection's session.
        self.exec_lock = asyncio.Lock()
        #: Ordered response queue; maxsize is the in-flight window.
        self.outbox: asyncio.Queue = asyncio.Queue(
            maxsize=server.window)
        self.read_task: Optional[asyncio.Task] = None
        self.queries = 0

    def new_result(self, rows, batch: int) -> Dict[str, Any]:
        """Register a result set, returning the RESULT message fields."""
        rid = self._next_rid
        self._next_rid += 1
        first, rest = rows[:batch], rows[batch:]
        out = {"result_id": rid, "rows": first, "complete": not rest}
        if rest:
            self.results[rid] = {"rows": rest, "pos": 0}
            while len(self.results) > MAX_PENDING_RESULTS:
                self.results.pop(next(iter(self.results)))
        return out


class ReproServer:
    """An asyncio TCP server speaking the repro wire protocol.

    Args:
        db: the engine to serve (the server does not own it unless
            ``owns_db=True`` — then :meth:`shutdown` closes it too).
        host/port: bind address; port 0 asks the OS for a free port
            (read the result from :attr:`port` after :meth:`start`).
        max_inflight: global cap on concurrently *executing* queries.
        window: per-connection in-flight frame window.
        idle_timeout: seconds a connection may sit between frames
            before the server closes it (None = forever).
        query_timeout: seconds one query may execute before the client
            gets an ``OperationalError`` and the connection is closed
            (the engine thread cannot be interrupted, so its session is
            reaped only once the query finishes; None = no limit).
        auth_token: when set, HELLO frames must carry it.
        fetch_batch: default rows per RESULT/ROWS frame.
        max_frame: per-frame byte ceiling, both directions.
    """

    def __init__(self, db: Database, host: str = "127.0.0.1",
                 port: int = 0, *,
                 max_inflight: int = 16,
                 window: int = 8,
                 idle_timeout: Optional[float] = None,
                 query_timeout: Optional[float] = None,
                 auth_token: Optional[str] = None,
                 fetch_batch: int = 1024,
                 max_frame: int = MAX_FRAME_BYTES,
                 owns_db: bool = False):
        self.db = db
        self.host = host
        self.port = port
        self.window = max(1, window)
        self.idle_timeout = idle_timeout
        self.query_timeout = query_timeout
        self.auth_token = auth_token
        self.fetch_batch = max(1, fetch_batch)
        self.max_frame = max_frame
        self.owns_db = owns_db
        self.manager = SessionManager(db)
        self._admission = asyncio.Semaphore(max(1, max_inflight))
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, max_inflight),
            thread_name_prefix="repro-net")
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._conns: set = set()
        self._handlers: set = set()
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._conn_ids = iter(range(1, 1 << 62))
        self.connections_served = 0
        self.queries_served = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ReproServer":
        self._loop = asyncio.get_running_loop()
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
            await self._server.wait_closed()
        # Kick idle connections out of their blocking reads; in-flight
        # dispatches are NOT cancelled — each handler's cleanup waits
        # for them and flushes their responses before closing.
        for conn in list(self._conns):
            conn.closing = True
            if conn.read_task is not None and not conn.read_task.done():
                conn.read_task.cancel()
        if self._handlers:
            await asyncio.gather(*list(self._handlers),
                                 return_exceptions=True)
        self.manager.close_all()
        self._executor.shutdown(wait=True)
        if self.owns_db:
            self.db.close()
        self._stopped.set()

    async def wait_shutdown(self) -> None:
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        conn = _Connection(self, writer, next(self._conn_ids))
        self._conns.add(conn)
        self.connections_served += 1
        writer_task: Optional[asyncio.Task] = None
        try:
            if self._draining:
                return
            if not await self._handshake(conn, reader):
                return
            writer_task = asyncio.create_task(self._writer_loop(conn))
            await self._reader_loop(conn, reader)
        except Exception:                     # pragma: no cover - guard
            log.exception("connection %d handler failed", conn.id)
        finally:
            conn.closing = True
            # Drain the outbox: every dispatched query finishes and its
            # response flushes (or is discarded on a dead socket).
            if writer_task is not None:
                await conn.outbox.put(None)
                await writer_task
            if conn.session is not None:
                self.manager.close_session(conn.session)
            conn.prepared.clear()
            conn.results.clear()
            self._conns.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._handlers.discard(task)

    async def _handshake(self, conn: _Connection,
                         reader: asyncio.StreamReader) -> bool:
        """HELLO/WELCOME exchange: version check, optional auth."""
        try:
            msg = await asyncio.wait_for(
                read_message(reader, max_frame=self.max_frame),
                timeout=self.idle_timeout or 30.0)
        except asyncio.TimeoutError:
            return False
        except ProtocolError as exc:
            await self._send_raw(conn, error_message(exc))
            return False
        if msg is None:
            return False
        if msg.get("type") != "hello":
            await self._send_raw(conn, error_message(ProtocolError(
                "expected a hello frame first")))
            return False
        if msg.get("version") != PROTOCOL_VERSION:
            await self._send_raw(conn, error_message(InterfaceError(
                f"protocol version {msg.get('version')!r} unsupported "
                f"(server speaks {PROTOCOL_VERSION})")))
            return False
        if self.auth_token is not None and \
                msg.get("token") != self.auth_token:
            await self._send_raw(conn, error_message(OperationalError(
                "authentication failed")))
            return False
        conn.session = self.manager.open_session(
            f"net-{conn.id}-{msg.get('client', 'client')}")
        await self._send_raw(conn, {
            "type": "welcome", "version": PROTOCOL_VERSION,
            "session": conn.session.name,
        })
        return True

    async def _send_raw(self, conn: _Connection,
                        message: Dict[str, Any]) -> None:
        """Direct ordered-bypass write (handshake only)."""
        try:
            await write_message(conn.writer, message)
        except (ConnectionError, OSError):
            conn.dead = True

    async def _reader_loop(self, conn: _Connection,
                           reader: asyncio.StreamReader) -> None:
        while not (conn.closing or self._draining):
            conn.read_task = asyncio.ensure_future(
                read_message(reader, max_frame=self.max_frame))
            try:
                if self.idle_timeout is not None:
                    msg = await asyncio.wait_for(
                        asyncio.shield(conn.read_task), self.idle_timeout)
                else:
                    msg = await conn.read_task
            except asyncio.TimeoutError:
                conn.read_task.cancel()
                await self._enqueue_ready(conn, error_message(
                    OperationalError(
                        f"idle timeout ({self.idle_timeout}s) — "
                        "closing connection")))
                break
            except asyncio.CancelledError:
                if self._draining or conn.closing:
                    break                     # drain kicked us out
                raise
            except ProtocolError as exc:
                await self._enqueue_ready(conn, error_message(exc))
                break
            if msg is None:                   # clean client EOF
                break
            if msg["type"] == "goodbye":
                await self._enqueue_ready(conn, {"type": "bye"})
                break
            task = asyncio.create_task(self._dispatch(conn, msg))
            # Window backpressure: blocks when this client already has
            # `window` frames in flight, which stops the socket reads.
            await conn.outbox.put(task)

    async def _enqueue_ready(self, conn: _Connection,
                             message: Dict[str, Any]) -> None:
        fut = self._loop.create_future()
        fut.set_result(message)
        await conn.outbox.put(fut)

    async def _writer_loop(self, conn: _Connection) -> None:
        """Flush responses in request order; sentinel ``None`` ends it."""
        while True:
            item = await conn.outbox.get()
            if item is None:
                return
            try:
                response = await item
            except asyncio.CancelledError:
                continue
            except Exception as exc:          # pragma: no cover - guard
                response = error_message(exc)
            if conn.dead:
                continue                      # still await tasks above
            try:
                await write_message(conn.writer, response,
                                    max_frame=self.max_frame)
            except ProtocolError as exc:
                # The response itself cannot be framed (e.g. a result
                # batch bigger than max_frame): degrade to a typed
                # error so the client is told instead of hung.
                try:
                    await write_message(conn.writer, error_message(exc))
                except (ConnectionError, OSError):
                    conn.dead = True
            except (ConnectionError, OSError):
                conn.dead = True

    # ------------------------------------------------------------------
    # Message dispatch (runs as one task per frame; never raises)
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
        batch = int(msg.get("fetch", self.fetch_batch))
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

        def work():
            result = conn.session.run_statement(stmt, params)
            value = result.value
            if isinstance(value, ResultSet):
                return value.rows(), value.description, result.stats
            return None, None, result.stats

        # Sessions are single-threaded: serialise this connection's
        # executes (the window still pipelines frames over the wire).
        async with conn.exec_lock:
            if conn.session is None or conn.session.closed:
                raise InterfaceError("session is closed")
            async with self._admission:       # global backpressure
                fut = self._loop.run_in_executor(self._executor, work)
                if self.query_timeout is not None:
                    try:
                        rows, description, stats = await asyncio.wait_for(
                            asyncio.shield(fut), self.query_timeout)
                    except asyncio.TimeoutError:
                        # The engine thread cannot be interrupted: mark
                        # the connection for closure and reap the
                        # session when the straggler finishes (it holds
                        # table locks until then, releasing normally).
                        conn.closing = True
                        session = conn.session
                        conn.session = None
                        fut.add_done_callback(
                            lambda _f: self.manager.close_session(session))
                        if conn.read_task is not None and \
                                not conn.read_task.done():
                            conn.read_task.cancel()
                        raise OperationalError(
                            f"query exceeded the {self.query_timeout}s "
                            "server limit; connection closed") from None
                else:
                    rows, description, stats = await fut
        conn.queries += 1
        self.queries_served += 1
        response: Dict[str, Any] = {
            "type": "result",
            "stats": stats.as_dict(),
            "description": description,
            "rowcount": len(rows) if rows is not None else -1,
        }
        if rows is None:
            response.update(result_id=0, rows=[], complete=True)
        else:
            response.update(conn.new_result(rows, batch))
        return response

    def _on_fetch(self, conn: _Connection,
                  msg: Dict[str, Any]) -> Dict[str, Any]:
        rid = msg.get("result_id")
        state = conn.results.get(rid)
        if state is None:
            raise ProgrammingError(
                f"no fetchable result set #{rid!r} on this connection")
        n = int(msg.get("n", self.fetch_batch))
        pos = state["pos"]
        chunk = state["rows"][pos:pos + max(1, n)]
        state["pos"] = pos + len(chunk)
        complete = state["pos"] >= len(state["rows"])
        if complete:
            del conn.results[rid]
        return {"type": "rows", "result_id": rid, "rows": chunk,
                "complete": complete}

    def _on_stats(self) -> Dict[str, Any]:
        """Engine + server counters for the STATS wire message."""
        db = self.db
        compile_stats = db.compile_cache_stats
        payload: Dict[str, Any] = {
            "type": "stats_result",
            "server": {
                "sessions": self.manager.session_count,
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
            pool_bytes, pool_entries = recycler.pool.usage()
            payload["pool"] = {
                "bytes": pool_bytes,
                "entries": pool_entries,
                "spilled_bytes": recycler.spilled_bytes,
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
