"""PEP 249 (DB-API 2.0) front-end: ``connect()``, Connection, Cursor.

The primary client surface of the library.  Statements are parametrised
templates (paper §2.2): ``?`` (qmark) and ``:name`` (named) placeholders
normalise to the same template key as inline literals, so re-executing a
statement with fresh parameters reuses the compiled plan — and, through
the recycler, every parameter-independent intermediate::

    import repro

    with repro.connect(max_bytes=64 << 20) as conn:
        conn.create_table("t", {"x": "int64"}, {"x": range(1000)})
        cur = conn.cursor()
        cur.execute("select count(*) from t where x >= ?", (500,))
        print(cur.fetchone())
        cur.execute("select count(*) from t where x >= ?", (750,))
        print(cur.stats.hits)          # recycler hits on the repeat

Concurrency: a :class:`Connection` wraps one engine
(:class:`~repro.db.Database`) and opens one
:class:`~repro.server.session.Session` *per thread* over the shared
recycle pool, so cursors used from many threads get private execution
state and global cross-session reuse (threadsafety level 2: threads may
share the module and connections, not cursors).

The PEP 249 contract itself is written once, in :class:`BaseConnection`
and :class:`BaseCursor`; :class:`Connection`/:class:`Cursor` here and
:mod:`repro.net.client`'s network classes are sibling leaves that add
only their transport.

Extensions beyond PEP 249 (all documented in ``docs/API.md``):
``Cursor.stats`` / ``Cursor.stats_batch`` (recycler statistics),
``Cursor.execute_template`` (named compiled templates),
``Connection.create_table`` / ``insert`` / ``database`` (DDL/DML
passthrough — this engine's SQL dialect is query-only).
"""

from __future__ import annotations

import threading
import weakref
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.db import Database
from repro.errors import (
    DatabaseError,
    DataError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    Warning,
)
from repro.mal.interpreter import ExecutionStats
from repro.mal.operators.results import ResultSet
from repro.server.session import Session

#: PEP 249 module attributes.
apilevel = "2.0"
#: Threads may share the module and connections (sessions are opened
#: per thread); sharing one cursor between threads is not supported.
threadsafety = 2
#: Primary paramstyle; ``named`` is supported as well.
paramstyle = "qmark"

__all__ = [
    "apilevel", "threadsafety", "paramstyle", "connect",
    "Connection", "Cursor",
    "Warning", "Error", "InterfaceError", "DatabaseError", "DataError",
    "OperationalError", "IntegrityError", "InternalError",
    "ProgrammingError", "NotSupportedError",
]


def connect(*, database: Optional[Database] = None,
            url: Optional[str] = None,
            **db_kwargs: Any) -> Any:
    """Open a DB-API connection: embedded engine or network server.

    Args:
        database: attach to an existing engine instead of building one.
            The connection then does *not* own it: closing the
            connection closes its sessions but leaves the engine (and
            its spill directory) alive.
        url: a ``repro://host[:port]`` address — connect to a running
            :class:`~repro.net.server.ReproServer` instead of embedding
            an engine, returning a
            :class:`~repro.net.client.NetConnection` with the same
            cursor surface.  Keyword arguments then configure the
            client (``auth_token=``, ``timeout=``, ``fetch_batch=``...).
        **db_kwargs: forwarded to the :class:`~repro.db.Database`
            constructor (``recycle=``, ``admission=``, ``eviction=``,
            ``max_bytes=``, ``spill_dir=``, ...).  With no arguments you
            get the default engine (recycler on, keepall/LRU,
            unlimited).

    The connection is a context manager; leaving the ``with`` block
    closes it, and — for owned engines — empties the recycle pool and
    removes the per-run spill directory::

        with repro.connect(spill_dir="/tmp/spill") as conn:
            ...
        with repro.connect(url="repro://127.0.0.1:6414") as conn:
            ...
    """
    if url is not None:
        if database is not None:
            raise InterfaceError(
                "connect() takes either url= (network) or database= "
                "(embedded), not both")
        from repro.net.client import connect_url

        try:
            return connect_url(url, **db_kwargs)
        except TypeError as exc:
            raise InterfaceError(
                f"bad connect() option for url=: {exc}") from exc
    if database is not None:
        if db_kwargs:
            raise InterfaceError(
                "connect(database=...) attaches to an existing engine; "
                "configure it at construction instead"
            )
        return Connection(database, owns_engine=False)
    try:
        engine = Database(**db_kwargs)
    except TypeError as exc:
        # Misspelled engine options must surface as DB-API interface
        # misuse, not a bare TypeError from the constructor.
        raise InterfaceError(f"bad connect() option: {exc}") from exc
    return Connection(engine, owns_engine=True)


class BaseConnection:
    """The PEP 249 connection surface both transports share.

    A leaf names its cursor class in :attr:`cursor_class` and supplies
    ``_disconnect()``, the transport's half of :meth:`close`.
    :attr:`_lock` guards the closed flag (and whatever the leaf adds).
    """

    cursor_class: type

    def __init__(self):
        self._closed = False
        self._lock = threading.Lock()
        #: Live cursors, closed automatically when the connection
        #: closes.  Weak references: a cursor dropped by the client
        #: must not be kept alive (with its rows) by this registry.
        self._cursors: "weakref.WeakSet[BaseCursor]" = weakref.WeakSet()

    def cursor(self) -> "BaseCursor":
        self._check_open()
        cur = self.cursor_class(self)
        self._cursors.add(cur)
        return cur

    def commit(self) -> None:
        """No-op: the engine is autocommit (DML applies immediately)."""
        self._check_open()

    def rollback(self) -> None:
        raise NotSupportedError(
            "transactions are not supported (autocommit engine)"
        )

    def close(self) -> None:
        """Close the connection (idempotent); open cursors close too."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for cur in list(self._cursors):
            cur.close()
        self._disconnect()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def __enter__(self) -> "BaseConnection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: DB-API ``description`` entry: 7-tuple per result column.
DescriptionRow = Tuple[str, str, None, Optional[int], None, None, None]


class BaseCursor:
    """The PEP 249 cursor contract, written once for both transports.

    Single-threaded by contract (open one per thread; they are cheap).
    A leaf supplies only how a statement travels and how its rows
    arrive:

    * ``_send(sql, params)`` runs one SQL statement and returns
      ``(stats, result)``;
    * ``_install(result)`` makes a result that carries a result set the
      current one — :attr:`description`, :attr:`rowcount`, ``_result``
      (the transport's handle on it), the first rows in ``_rows`` and
      ``_complete`` — and leaves any other result alone;
    * ``_pull()`` returns the next rows of an incomplete result set and
      updates ``_complete``.
    """

    arraysize = 1

    def __init__(self, connection: BaseConnection):
        self.connection = connection
        self._closed = False
        self._reset()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Any = None) -> "BaseCursor":
        """Execute a (possibly parametrised) statement.

        *params* is a sequence for ``?`` placeholders, a mapping for
        ``:name`` placeholders.  The statement compiles into a cached
        template on first execution; repeats — any params — reuse it.
        """
        return self._execute(self._send, sql, params)

    def executemany(self, sql: str,
                    seq_of_params: Sequence[Any]) -> "BaseCursor":
        """Execute *sql* once per parameter set.

        The template compiles exactly once; every subsequent set binds
        into the same plan, so the recycler serves the
        parameter-independent prefix from the pool on every repeat —
        the paper's heavy multi-user traffic pattern, batched.

        The last set's result set remains fetchable; per-set recycler
        statistics land in :attr:`stats_batch`.
        """
        self._check_open()
        self._reset()
        for params in seq_of_params:
            stats, result = self._send(sql, params)
            self.stats_batch.append(stats)
        if self.stats_batch:
            self.stats = stats
            self._install(result)
        return self

    def _execute(self, send, *args) -> "BaseCursor":
        """Run ``send(*args)`` and make its result the current one."""
        self._check_open()
        self._reset()
        self.stats, result = send(*args)
        self._install(result)
        return self

    def _reset(self) -> None:
        """Drop the previous statement's state before executing anew.

        A failed (or empty-batch) execution must never leave the prior
        statement's rows fetchable as if they came from the new one.
        """
        self._result: Any = None
        #: Rows received so far; None when there is no result set.
        self._rows: Optional[List[Tuple]] = None
        self._pos = 0
        self._complete = True
        self.description: Optional[List[DescriptionRow]] = None
        self.rowcount = -1
        #: Recycler statistics of the last executed statement.
        self.stats: Any = None
        #: Per-parameter-set statistics of the last ``executemany``.
        self.stats_batch: List[Any] = []

    # ------------------------------------------------------------------
    # Fetching
    # ------------------------------------------------------------------
    def _buffer(self, n: Optional[int]) -> List[Tuple]:
        """The rows received, holding at least *n* past the position
        (all of them when None) unless the result set ends first."""
        self._check_open()
        if self._rows is None:
            raise ProgrammingError("no result set: execute first")
        while not self._complete and (
                n is None or len(self._rows) - self._pos < n):
            self._rows += self._pull()
        return self._rows

    def fetchone(self) -> Optional[Tuple]:
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple]:
        size = self.arraysize if size is None else size
        rows = self._buffer(size)           # a negative size pulls nothing
        if size < 0:
            raise ProgrammingError(f"fetchmany size must be >= 0, got {size}")
        chunk = rows[self._pos:self._pos + size]
        self._pos += len(chunk)
        return chunk

    def fetchall(self) -> List[Tuple]:
        rows = self._buffer(None)
        chunk = rows[self._pos:]
        self._pos = len(rows)
        return chunk

    def __iter__(self) -> Iterator[Tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # ------------------------------------------------------------------
    # Misc PEP 249
    # ------------------------------------------------------------------
    def setinputsizes(self, sizes) -> None:
        """No-op (PEP 249 allows this)."""

    def setoutputsize(self, size, column=None) -> None:
        """No-op (PEP 249 allows this)."""

    def close(self) -> None:
        self._closed = True
        self._reset()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    def __enter__(self) -> "BaseCursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"{type(self).__name__}({state}, rowcount={self.rowcount})"


class Cursor(BaseCursor):
    """A DB-API 2.0 cursor over an embedded engine.

    Execution state lives in the calling thread's session.  Beyond PEP
    249: :attr:`stats` is the last statement's
    :class:`~repro.mal.interpreter.ExecutionStats` (recycler hits,
    marked instructions, saved time), :attr:`stats_batch` the per-set
    statistics of the last :meth:`executemany`, :meth:`execute_template`
    runs a registered compiled template and :attr:`result` is the raw
    result set.  Rows are built from it on the first fetch.
    """

    def _send(self, sql: str, params: Any) -> Tuple[ExecutionStats, Any]:
        result = self.connection.session().execute(sql, params)
        return result.stats, result.value

    def execute_template(self, name: str,
                         params: Optional[Dict[str, Any]] = None
                         ) -> "Cursor":
        """Run a registered compiled template (builder API) by name."""
        def send():
            result = self.connection.session().run_template(name, params)
            return result.stats, result.value

        return self._execute(send)

    def _install(self, value: Any) -> None:
        if isinstance(value, ResultSet):
            self._result = value
            self._rows = []
            self._complete = False
            self.description = value.description
            self.rowcount = len(value)

    def _pull(self) -> List[Tuple]:
        self._complete = True
        return self._result.rows()

    @property
    def result(self) -> Optional[ResultSet]:
        """The last statement's raw :class:`ResultSet` (extension)."""
        return self._result


class Connection(BaseConnection):
    """A DB-API 2.0 connection: one engine, one session per thread.

    Obtain via :func:`connect`.  All cursors of a connection share its
    engine's catalogue, template caches and recycle pool; each *thread*
    executes through its own :class:`~repro.server.session.Session`, so
    per-session statistics and the local/global hit split (§3.3) stay
    meaningful under concurrency.  :meth:`close` closes every session
    this connection opened and, when the connection owns its engine
    (built by :func:`connect`), the engine too — emptying the recycle
    pool and deleting the per-run spill directory.
    """

    cursor_class = Cursor

    def __init__(self, database: Database, owns_engine: bool = True):
        super().__init__()
        self._db = database
        self._owns_engine = owns_engine
        self._tlocal = threading.local()
        #: ``(owning thread, session)`` pairs — the thread handle lets
        #: :meth:`session` prune (and close) sessions whose thread died,
        #: so a thread-per-request server does not accumulate them.
        self._sessions: List[Tuple[threading.Thread, Session]] = []

    def _disconnect(self) -> None:
        with self._lock:
            sessions, self._sessions = self._sessions, []
        for _thread, session in sessions:
            session.close()
        if self._owns_engine:
            self._db.close()

    # ------------------------------------------------------------------
    # Extensions
    # ------------------------------------------------------------------
    @property
    def database(self) -> Database:
        """The engine underneath (catalogue, recycler, sessions...)."""
        return self._db

    def create_table(self, name: str, columns: Mapping[str, str],
                     data: Mapping[str, Sequence]):
        """DDL passthrough (the SQL dialect is query-only)."""
        self._check_open()
        return self._db.create_table(name, columns, data)

    def insert(self, table: str, rows: Mapping[str, Sequence]) -> None:
        """DML passthrough, with §6 update synchronisation."""
        self._check_open()
        self._db.insert(table, rows)

    def session(self) -> Session:
        """This thread's session, opened on first use."""
        self._check_open()
        session = getattr(self._tlocal, "session", None)
        if session is None or session.closed:
            session = self._db.session()
            # Registration re-checks closed *inside* the lock: a close()
            # racing with this open either sees the session in the list
            # (and closes it) or has already won, in which case the
            # fresh session must not escape onto a torn-down engine.
            with self._lock:
                if self._closed:
                    session.close()
                    raise InterfaceError("connection is closed")
                # Prune sessions whose owning thread is gone, so a
                # thread-per-request pattern stays bounded.  One
                # is_alive() call per entry: a thread dying between two
                # passes would otherwise be dropped without being
                # closed.
                alive, dead = [], []
                for pair in self._sessions:
                    (alive if pair[0].is_alive() else dead).append(pair)
                self._sessions = alive
                self._tlocal.session = session
                self._sessions.append(
                    (threading.current_thread(), session)
                )
            for _thread, stale in dead:
                stale.close()
        return session


    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Connection({self._db!r}, {state})"
