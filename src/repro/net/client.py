"""The blocking network client: DB-API cursors over a socket.

``repro.connect(url="repro://host:port")`` lands here and returns a
:class:`NetConnection`.  It and its cursors are leaves of the same
PEP 249 bases as the embedded :class:`repro.dbapi.Connection` and
:class:`repro.dbapi.Cursor`; they add only the wire, so moving a client
from the embedded engine to a server is a one-line change::

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
from typing import Any, Dict, List, Optional, Tuple

from repro.dbapi import BaseConnection, BaseCursor
from repro.errors import InterfaceError, OperationalError
from repro.net.protocol import (
    DEFAULT_FETCH_BATCH,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    DEFAULT_PORT,
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


class NetCursor(BaseCursor):
    """A DB-API cursor executing over the wire.

    Result rows stream server-to-client in batches (``fetch_batch``
    rows per frame), pulled lazily as the fetch methods consume them;
    :attr:`stats` is the RESULT frame's statistics dict.
    """

    def _send(self, sql: str, params: Any,
              key: str = "sql") -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """One EXECUTE; with *key* ``"name"``, *sql* names a server-side
        prepared statement instead."""
        reply = self.connection._request({
            "type": "execute", key: sql, "params": params,
            "fetch": self.connection.fetch_batch,
        })
        return reply.get("stats"), reply

    def execute_named(self, name: str, params: Any = None) -> "NetCursor":
        """Execute a server-side named prepared statement."""
        return self._execute(self._send, name, params, "name")

    def _install(self, reply: Dict[str, Any]) -> None:
        description = reply.get("description")
        if description is None:
            return                            # no result set
        self.description = [tuple(d) for d in description]
        self.rowcount = reply.get("rowcount", -1)
        self._result = reply.get("result_id", 0)
        self._rows = _frame_rows(reply)
        self._complete = reply.get("complete", True)

    def _pull(self) -> List[Tuple]:
        reply = self.connection._request({
            "type": "fetch", "result_id": self._open_result(),
            "n": self.connection.fetch_batch,
        })
        self._complete = reply.get("complete", True)
        return _frame_rows(reply)


def _frame_rows(reply: Dict[str, Any]) -> List[Tuple]:
    """A RESULT/ROWS frame's rows, built a column at a time as
    ``ResultSet.rows()`` builds them embedded."""
    return list(zip(*reply.get("columns", [])))


class NetConnection(BaseConnection):
    """A client connection to a :class:`~repro.net.server.ReproServer`.

    Args:
        host/port: server address.
        auth_token: sent in HELLO when the server requires one.
        connect_timeout: seconds for TCP connect + handshake.
        timeout: per-exchange socket timeout (None = wait forever; the
            default 300s keeps a dead server from hanging clients).
        fetch_batch: rows requested per RESULT/ROWS frame.
    """

    cursor_class = NetCursor

    def __init__(self, host: str, port: int, *,
                 auth_token: Optional[str] = None,
                 connect_timeout: float = 10.0,
                 timeout: Optional[float] = 300.0,
                 fetch_batch: int = DEFAULT_FETCH_BATCH,
                 client_name: str = "repro-client"):
        super().__init__()
        self.fetch_batch = max(1, fetch_batch)
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout)
        except OSError as exc:
            raise OperationalError(
                f"cannot connect to repro://{host}:{port}: {exc}") from exc
        self._sock.settimeout(connect_timeout)
        try:
            hello = {"type": "hello", "version": PROTOCOL_VERSION,
                     "client": client_name}
            if auth_token is not None:
                hello["token"] = auth_token
            send_message(self._sock, hello)
            welcome = recv_message(self._sock)
            if welcome["type"] == "error":
                raise_wire_error(welcome)
            if welcome["type"] != "welcome":
                raise InterfaceError(
                    f"unexpected handshake reply {welcome['type']!r}")
            self.session_name = welcome.get("session")
        except Exception:
            self._teardown()
            raise
        self._sock.settimeout(timeout)

    # ------------------------------------------------------------------
    # Wire exchange
    # ------------------------------------------------------------------
    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One ordered request-response exchange (raises typed errors).

        :attr:`_lock` serialises the exchanges of cursors sharing this
        connection.
        """
        with self._lock:
            self._check_open()
            try:
                send_message(self._sock, message)
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

    def _disconnect(self) -> None:
        try:
            with self._lock:
                send_message(self._sock, {"type": "goodbye"})
                recv_message(self._sock)          # bye
        except Exception:
            pass                              # best effort farewell
        self._teardown()

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

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"NetConnection({self.session_name}, {state})"
