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
from repro.mal.interpreter import ExecutionStats, InvocationResult
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


class Connection:
    """A DB-API 2.0 connection: one engine, one session per thread.

    Obtain via :func:`connect`.  All cursors of a connection share its
    engine's catalogue, template caches and recycle pool; each *thread*
    executes through its own :class:`~repro.server.session.Session`, so
    per-session statistics and the local/global hit split (§3.3) stay
    meaningful under concurrency.
    """

    def __init__(self, database: Database, owns_engine: bool = True):
        self._db = database
        self._owns_engine = owns_engine
        self._closed = False
        self._tlocal = threading.local()
        #: ``(owning thread, session)`` pairs — the thread handle lets
        #: :meth:`session` prune (and close) sessions whose thread died,
        #: so a thread-per-request server does not accumulate them.
        self._sessions: List[Tuple[threading.Thread, Session]] = []
        self._lock = threading.Lock()
        #: Live cursors, closed automatically when the connection
        #: closes.  Weak references: a cursor dropped by the client
        #: must not be kept alive (with its result set) by this
        #: registry.
        self._cursors: "weakref.WeakSet[Cursor]" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # PEP 249 surface
    # ------------------------------------------------------------------
    def cursor(self) -> "Cursor":
        self._check_open()
        cur = Cursor(self)
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
        """Close the connection (idempotent).

        Closes every open cursor and every session this connection
        opened; when the connection owns its engine (built by
        :func:`connect`), also closes the engine — emptying the recycle
        pool and deleting the per-run spill directory.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions, self._sessions = self._sessions, []
        for cur in list(self._cursors):
            cur.close()
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

    @property
    def closed(self) -> bool:
        return self._closed

    def create_table(self, name: str, columns: Mapping[str, str],
                     data: Mapping[str, Sequence],
                     primary_key: Optional[str] = None):
        """DDL passthrough (the SQL dialect is query-only)."""
        self._check_open()
        return self._db.create_table(name, columns, data,
                                     primary_key=primary_key)

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

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Connection({self._db!r}, {state})"


#: DB-API ``description`` entry: 7-tuple per result column.
DescriptionRow = Tuple[str, str, None, Optional[int], None, None, None]


class Cursor:
    """A DB-API 2.0 cursor over one connection.

    Single-threaded by contract (open one per thread; they are cheap —
    execution state lives in the thread's session).  Beyond PEP 249:
    :attr:`stats` exposes the last statement's
    :class:`~repro.mal.interpreter.ExecutionStats` (recycler hits,
    marked instructions, saved time), :attr:`stats_batch` the per-set
    statistics of the last :meth:`executemany`, and
    :meth:`execute_template` runs a registered compiled template.
    """

    arraysize = 1

    def __init__(self, connection: Connection):
        self.connection = connection
        self._closed = False
        self._result: Optional[ResultSet] = None
        self._rows: Optional[List[Tuple]] = None
        self._pos = 0
        self.description: Optional[List[DescriptionRow]] = None
        self.rowcount = -1
        #: Recycler statistics of the last executed statement.
        self.stats: Optional[ExecutionStats] = None
        #: Per-parameter-set statistics of the last ``executemany``.
        self.stats_batch: List[ExecutionStats] = []

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Any = None) -> "Cursor":
        """Execute a (possibly parametrised) statement.

        *params* is a sequence for ``?`` placeholders, a mapping for
        ``:name`` placeholders.  The statement compiles into a cached
        template on first execution; repeats — any params — reuse it.
        """
        self._check_open()
        session = self.connection.session()
        self._reset()
        self._install(session.execute(sql, params))
        return self

    def executemany(self, sql: str,
                    seq_of_params: Sequence[Any]) -> "Cursor":
        """Execute *sql* once per parameter set.

        The template compiles exactly once; every subsequent set binds
        into the same plan, so the recycler serves the
        parameter-independent prefix from the pool on every repeat —
        the paper's heavy multi-user traffic pattern, batched.

        The last set's result set remains fetchable; per-set recycler
        statistics land in :attr:`stats_batch`.
        """
        self._check_open()
        session = self.connection.session()
        self._reset()
        result: Optional[InvocationResult] = None
        for params in seq_of_params:
            result = session.execute(sql, params)
            self.stats_batch.append(result.stats)
        if result is not None:
            self._install(result)
        return self

    def execute_template(self, name: str,
                         params: Optional[Dict[str, Any]] = None
                         ) -> "Cursor":
        """Run a registered compiled template (builder API) by name."""
        self._check_open()
        session = self.connection.session()
        self._reset()
        self._install(session.run_template(name, params))
        return self

    def _reset(self) -> None:
        """Drop the previous statement's state before executing anew.

        A failed (or empty-batch) execution must never leave the prior
        statement's rows fetchable as if they came from the new one.
        """
        self._result = None
        self._rows = None
        self._pos = 0
        self.description = None
        self.rowcount = -1
        self.stats = None
        self.stats_batch = []

    def _install(self, result: InvocationResult) -> None:
        self.stats = result.stats
        value = result.value
        if isinstance(value, ResultSet):
            self._result = value
            self._rows = None           # materialised lazily
            self._pos = 0
            self.description = value.description
            self.rowcount = len(value)
        else:
            self._result = None
            self._rows = []
            self._pos = 0
            self.description = None
            self.rowcount = -1

    # ------------------------------------------------------------------
    # Fetching
    # ------------------------------------------------------------------
    def _materialised(self) -> List[Tuple]:
        if self._rows is None:
            self._check_open()
            if self._result is None:
                raise ProgrammingError("no result set: execute first")
            self._rows = self._result.rows()
        return self._rows

    def fetchone(self) -> Optional[Tuple]:
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple]:
        rows = self._materialised()
        size = self.arraysize if size is None else size
        if size < 0:
            raise ProgrammingError(f"fetchmany size must be >= 0, got {size}")
        chunk = rows[self._pos:self._pos + size]
        self._pos += len(chunk)
        return chunk

    def fetchall(self) -> List[Tuple]:
        rows = self._materialised()
        chunk = rows[self._pos:]
        self._pos = len(rows)
        return chunk

    def __iter__(self) -> Iterator[Tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    @property
    def result(self) -> Optional[ResultSet]:
        """The last statement's raw :class:`ResultSet` (extension)."""
        return self._result

    # ------------------------------------------------------------------
    # Misc PEP 249
    # ------------------------------------------------------------------
    def setinputsizes(self, sizes) -> None:
        """No-op (PEP 249 allows this)."""

    def setoutputsize(self, size, column=None) -> None:
        """No-op (PEP 249 allows this)."""

    def close(self) -> None:
        self._closed = True
        self._result = None
        self._rows = None
        self.description = None

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Cursor({state}, rowcount={self.rowcount})"
