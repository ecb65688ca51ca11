"""The blocking network client: DB-API cursors over a socket.

``repro.connect(url="repro://host:port")`` lands here and returns a
:class:`NetConnection` whose cursors mirror the embedded
:class:`repro.dbapi.Cursor` surface (``execute`` / ``fetchone`` /
``fetchmany`` / ``fetchall`` / ``description`` / ``rowcount`` /
iteration / context managers), so moving a client from the embedded
engine to a server is a one-line change::

    conn = repro.connect(url="repro://127.0.0.1:6414")
    cur = conn.cursor()
    cur.execute("select count(*) from t where x >= ?", (500,))
    print(cur.fetchone())

Beyond PEP 249 parity:

* :meth:`NetConnection.prepare` registers a *server-side named
  prepared statement*; :meth:`NetCursor.execute_named` runs it — repeat
  executions bind into the server's compiled plan with zero parse/plan
  work, which :meth:`NetConnection.stats` can verify over the wire via
  the server's compile-cache counters.
* :attr:`NetCursor.stats` carries the per-query recycler statistics
  (hits, marked, saved time) as a plain dict.

Errors arrive as typed ``error`` frames carrying the PEP 249 class
name and re-raise as the matching :mod:`repro.errors` class, so
``except repro.ProgrammingError`` works identically against both paths.

One request-response exchange at a time per connection (a lock
serialises cursors sharing a connection); open one connection per
thread for parallelism — they are cheap, and the server multiplexes.
"""

from __future__ import annotations

import re
import socket
import threading
import weakref
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import InterfaceError, OperationalError, ProgrammingError
from repro.net.protocol import (
    CODEC_IDS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    DEFAULT_PORT,
    available_codecs,
    raise_wire_error,
    recv_message,
    send_message,
)

_URL_RE = re.compile(
    r"^repro://(?P<host>\[[^\]]+\]|[^:/]+)(?::(?P<port>\d+))?/?$"
)


def parse_url(url: str) -> Tuple[str, int]:
    """``repro://host[:port]`` -> ``(host, port)``."""
    m = _URL_RE.match(url)
    if not m:
        raise InterfaceError(
            f"bad connection url {url!r} (expected repro://host[:port])")
    host = m.group("host").strip("[]")
    port = int(m.group("port") or DEFAULT_PORT)
    return host, port


def connect_url(url: str, **kwargs: Any) -> "NetConnection":
    """Open a :class:`NetConnection` from a ``repro://`` url."""
    host, port = parse_url(url)
    return NetConnection(host, port, **kwargs)


class NetConnection:
    """A client connection to a :class:`~repro.net.server.ReproServer`.

    Args:
        host/port: server address.
        auth_token: sent in HELLO when the server requires one.
        connect_timeout: seconds for TCP connect + handshake.
        timeout: per-exchange socket timeout (None = wait forever; the
            default 300s keeps a dead server from hanging clients).
        fetch_batch: rows requested per RESULT/ROWS frame.
    """

    def __init__(self, host: str, port: int, *,
                 auth_token: Optional[str] = None,
                 connect_timeout: float = 10.0,
                 timeout: Optional[float] = 300.0,
                 fetch_batch: int = 1024,
                 client_name: str = "repro-client"):
        self._closed = False
        self._lock = threading.Lock()
        self.fetch_batch = max(1, fetch_batch)
        #: Open cursors, closed with the connection.  Weak references:
        #: a cursor dropped by the client must not be kept alive (with
        #: its buffered rows) by this registry.
        self._cursors: "weakref.WeakSet[NetCursor]" = weakref.WeakSet()
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout)
        except OSError as exc:
            raise OperationalError(
                f"cannot connect to repro://{host}:{port}: {exc}") from exc
        self._sock.settimeout(connect_timeout)
        try:
            hello = {
                "type": "hello", "version": PROTOCOL_VERSION,
                "codecs": available_codecs(), "client": client_name,
            }
            if auth_token is not None:
                hello["token"] = auth_token
            send_message(self._sock, hello)
            welcome = recv_message(self._sock)
            if welcome["type"] == "error":
                raise_wire_error(welcome)
            if welcome["type"] != "welcome":
                raise InterfaceError(
                    f"unexpected handshake reply {welcome['type']!r}")
            self._codec = CODEC_IDS[welcome.get("codec", "json")]
            self.session_name = welcome.get("session")
        except Exception:
            self._sock.close()
            self._closed = True
            raise
        self._sock.settimeout(timeout)

    # ------------------------------------------------------------------
    # Wire exchange
    # ------------------------------------------------------------------
    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One ordered request-response exchange (raises typed errors)."""
        with self._lock:
            self._check_open()
            try:
                send_message(self._sock, message, self._codec)
                reply = recv_message(self._sock,
                                     max_frame=MAX_FRAME_BYTES)
            except (ConnectionError, socket.timeout, OSError) as exc:
                # The socket is unusable mid-exchange: poison the
                # connection so later calls fail fast and cleanly.
                self._teardown()
                raise OperationalError(
                    f"connection to server lost: {exc}") from exc
        if reply["type"] == "error":
            raise_wire_error(reply)
        return reply

    def _teardown(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    # ------------------------------------------------------------------
    # DB-API surface
    # ------------------------------------------------------------------
    def cursor(self) -> "NetCursor":
        self._check_open()
        cur = NetCursor(self)
        self._cursors.add(cur)
        return cur

    def commit(self) -> None:
        self._check_open()                    # autocommit engine

    def rollback(self) -> None:
        from repro.errors import NotSupportedError
        raise NotSupportedError(
            "transactions are not supported (autocommit engine)")

    def close(self) -> None:
        """Close the connection (idempotent); open cursors close too."""
        if self._closed:
            return
        for cur in list(self._cursors):
            cur.close()
        self._cursors.clear()
        try:
            with self._lock:
                if not self._closed:
                    send_message(self._sock, {"type": "goodbye"},
                                 self._codec)
                    recv_message(self._sock)      # bye
        except (Exception, socket.timeout):
            pass                              # best effort farewell
        self._teardown()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Extensions
    # ------------------------------------------------------------------
    def prepare(self, name: str, sql: str) -> Dict[str, Any]:
        """Register a server-side named prepared statement."""
        reply = self._request({"type": "prepare", "name": name,
                               "sql": sql})
        return {"name": reply["name"],
                "n_placeholders": reply["n_placeholders"],
                "paramstyle": reply["paramstyle"]}

    def close_statement(self, name: str) -> None:
        self._request({"type": "close_stmt", "name": name})

    def stats(self) -> Dict[str, Any]:
        """Server/engine statistics: sessions, compile cache, pool,
        recycler totals — the STATS wire message as a dict."""
        reply = self._request({"type": "stats"})
        return {k: v for k, v in reply.items() if k != "type"}

    def __enter__(self) -> "NetConnection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"NetConnection({self.session_name}, {state})"


class NetCursor:
    """A DB-API cursor executing over the wire.

    Matches :class:`repro.dbapi.Cursor` for the query surface; result
    rows stream server-to-client in batches (`fetch_batch` rows per
    frame), pulled lazily as the fetch methods consume them.
    """

    arraysize = 1

    def __init__(self, connection: NetConnection):
        self.connection = connection
        self._closed = False
        self._rows: List[Tuple] = []
        self._pos = 0
        self._result_id = 0
        self._complete = True
        self.description: Optional[List[Tuple]] = None
        self.rowcount = -1
        #: Per-query recycler statistics dict from the RESULT frame.
        self.stats: Optional[Dict[str, Any]] = None
        #: Per-parameter-set stats of the last :meth:`executemany`.
        self.stats_batch: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    def _install(self, reply: Dict[str, Any]) -> None:
        self.stats = reply.get("stats")
        description = reply.get("description")
        self.description = (
            [tuple(d) for d in description] if description else None
        )
        self.rowcount = reply.get("rowcount", -1)
        self._rows = [tuple(r) for r in reply.get("rows", [])]
        self._pos = 0
        self._result_id = reply.get("result_id", 0)
        self._complete = reply.get("complete", True)

    def _reset(self) -> None:
        self._rows = []
        self._pos = 0
        self._result_id = 0
        self._complete = True
        self.description = None
        self.rowcount = -1
        self.stats = None
        self.stats_batch = []

    def execute(self, sql: str, params: Any = None) -> "NetCursor":
        """Execute SQL (``?`` sequence / ``:name`` mapping params)."""
        self._check_open()
        self._reset()
        self._install(self.connection._request({
            "type": "execute", "sql": sql, "params": params,
            "fetch": self.connection.fetch_batch,
        }))
        return self

    def executemany(self, sql: str, seq_of_params) -> "NetCursor":
        self._check_open()
        self._reset()
        reply = None
        for params in seq_of_params:
            reply = self.connection._request({
                "type": "execute", "sql": sql, "params": params,
                "fetch": self.connection.fetch_batch,
            })
            self.stats_batch.append(reply.get("stats"))
        if reply is not None:
            batch = self.stats_batch
            self._install(reply)
            self.stats_batch = batch
        return self

    def execute_named(self, name: str, params: Any = None) -> "NetCursor":
        """Execute a server-side named prepared statement."""
        self._check_open()
        self._reset()
        self._install(self.connection._request({
            "type": "execute", "name": name, "params": params,
            "fetch": self.connection.fetch_batch,
        }))
        return self

    # ------------------------------------------------------------------
    def _have(self, n: Optional[int] = None) -> None:
        """Pull row batches from the server until *n* more rows are
        buffered (all rows when None) or the result is complete."""
        if self.description is None:
            raise ProgrammingError("no result set: execute first")
        while not self._complete and (
                n is None or len(self._rows) - self._pos < n):
            reply = self.connection._request({
                "type": "fetch", "result_id": self._result_id,
                "n": self.connection.fetch_batch,
            })
            self._rows.extend(tuple(r) for r in reply.get("rows", []))
            self._complete = reply.get("complete", True)

    def fetchone(self) -> Optional[Tuple]:
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple]:
        self._check_open()
        size = self.arraysize if size is None else size
        if size < 0:
            raise ProgrammingError(f"fetchmany size must be >= 0, got {size}")
        self._have(size)
        chunk = self._rows[self._pos:self._pos + size]
        self._pos += len(chunk)
        return chunk

    def fetchall(self) -> List[Tuple]:
        self._check_open()
        self._have(None)
        chunk = self._rows[self._pos:]
        self._pos = len(self._rows)
        return chunk

    def __iter__(self) -> Iterator[Tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # ------------------------------------------------------------------
    def setinputsizes(self, sizes) -> None:
        """No-op (PEP 249 allows this)."""

    def setoutputsize(self, size, column=None) -> None:
        """No-op (PEP 249 allows this)."""

    def close(self) -> None:
        self._closed = True
        self._rows = []
        self.description = None

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    def __enter__(self) -> "NetCursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"NetCursor({state}, rowcount={self.rowcount})"
