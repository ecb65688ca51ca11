"""Sessions: per-client interpreters over one shared recycle pool.

A :class:`Session` is what one connected client gets in a multi-session
deployment: its own :class:`~repro.mal.interpreter.Interpreter` (hence its
own execution stacks and invocation state) over the *shared* catalogue,
template caches and recycler of the owning
:class:`~repro.db.Database`.  Cross-session reuse is the whole point: an
intermediate admitted by one session's invocation is a *global* hit when
any other session matches it (§3.3's local/global distinction).

Locking contract (three levels, database → table → shard; see
``docs/ARCHITECTURE.md`` for the full inventory):

* **Queries take the database read side plus the read side of every
  table the plan binds**, in sorted-name order — both
  :meth:`Session.execute` and :meth:`Session.run_template` hold them
  (via :meth:`repro.db.Database.query_locked`) for the whole
  invocation, so a plan sees one consistent snapshot of the column
  versions it reads.
* **DML takes the database read side plus the mutated table's write
  side** (through the :class:`~repro.db.Database` facade; sessions
  issue queries only), so update invalidation never interleaves with a
  plan reading that table — while queries and updates on *other*
  tables run concurrently.  DDL and engine close take the database
  write side, draining everything.
* **Recycle-pool state sits behind the pool's per-shard locks**
  (:mod:`repro.core.pool`) — sessions never touch the pool directly;
  the interpreter enters shard locks only for Algorithm 1 bookkeeping,
  and cross-shard operations (eviction sweeps, reset, close) briefly
  take all shards in index order.  Operator execution overlaps freely
  across sessions.

Sessions themselves are single-threaded (one per thread; they are
cheap); the shared state they touch is protected by the locks above, so
opening sessions concurrently is safe.  :meth:`Session.close` alone is
thread-safe — the owning :class:`~repro.dbapi.Connection` may close a
session from another thread while pruning dead threads.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.mal.interpreter import (
    ExecutionStats,
    Interpreter,
    InvocationResult,
)
from repro.mal.program import MalProgram

if TYPE_CHECKING:
    from repro.db import Database


class Session:
    """One client session: private interpreter, shared pool.

    Obtain via :meth:`repro.db.Database.session`; usable directly from
    one thread at a time (sessions are cheap — open one per thread), and
    as a context manager::

        with db.session() as s:
            r = s.execute("select count(*) from t where x > 10")
    """

    def __init__(self, db: "Database", session_id: int,
                 name: Optional[str] = None):
        self.db = db
        self.id = session_id
        self.name = name or f"session-{session_id}"
        self.interpreter = Interpreter(
            db.catalog, recycler=db.recycler, clock=db.clock
        )
        #: Statements completed / failed, and the sum of every completed
        #: invocation's record.
        self.queries = 0
        self.errors = 0
        self.stats = ExecutionStats()
        self.closed = False
        #: Guards the closed flag: close() may race between the owning
        #: thread, Connection.close(), and the dead-thread prune in
        #: Connection.session() (see the module docstring).
        self._close_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _run_statement(self, stmt, params: Any) -> InvocationResult:
        """Drive one prepared statement through the shared pipeline.

        Both session entry points end here: the statement's
        :meth:`~repro.db.PreparedStatement.run` executes on *this*
        session's interpreter (private execution state), and the
        session's totals add the invocation's record.
        """
        try:
            result = stmt.run(params, interpreter=self.interpreter)
        except Exception:
            self.errors += 1
            raise
        self.queries += 1
        self.stats.add(result.stats)
        return result

    def run_template(self, template: Union[str, MalProgram],
                     params: Optional[Dict[str, Any]] = None
                     ) -> InvocationResult:
        """Run a registered (or given) template in this session."""
        self._check_open()
        return self._run_statement(self.db.prepare_template(template),
                                   params)

    def execute(self, sql: str, params: Any = None) -> InvocationResult:
        """Compile (against the shared template cache) and run SQL.

        *params* follows the DB-API convention: a sequence binds ``?``
        placeholders, a mapping binds ``:name`` placeholders — and, on a
        placeholder-free statement, a mapping is applied as raw
        template-parameter overrides (the historical calling style).
        Placeholder statements bind into the cached template without
        re-compiling, so repeats hit the recycler.
        """
        self._check_open()
        return self._run_statement(self.db.prepare(sql), params)

    def run_statement(self, stmt, params: Any = None) -> InvocationResult:
        """Run an already-prepared statement in this session.

        The entry point for holders of a
        :class:`~repro.db.PreparedStatement` handle — the network
        server's named prepared statements use it so repeat EXECUTEs
        bind straight into the statement's compiled plan (zero
        parse/plan work) while execution state and statistics stay
        per-session.
        """
        self._check_open()
        return self._run_statement(stmt, params)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the session (idempotent, safe under concurrent callers).

        The DB-API connection closes sessions from two places that can
        race — its own close() and the dead-thread prune — so the flag
        write is serialised and repeat calls are no-ops.
        """
        with self._close_lock:
            if self.closed:
                return
            self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(f"{self.name} is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Session({self.name}, queries={self.queries}, "
            f"hits={self.stats.hits})"
        )
