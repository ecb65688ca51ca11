"""Sessions: per-client statistics over one shared engine and recycle pool.

A :class:`Session` is what one connected client gets in a multi-session
deployment: its own statement and hit counters over the *shared*
catalogue, template caches, interpreter and recycler of the owning
:class:`~repro.db.Database`.  The interpreter keeps no per-run state —
each invocation has its own stack — so every session runs on the
engine's one instance.  Every session reuses the one shared pool.  The
§3.3 local/global split is by *invocation*, not by session: a *local*
hit reuses an intermediate inside the invocation that admitted it, a
*global* hit is any other invocation's reuse — in this session or
another.

Locking contract (three levels, database → table → pool; see
``docs/ARCHITECTURE.md`` for the full inventory):

* **Queries take the database read side plus the read side of every
  table the plan binds**, in sorted-name order —
  :meth:`repro.db.Database.run_template`, where every session entry
  point ends, holds them for the whole invocation, so a plan sees one
  consistent snapshot of the column versions it reads.
* **DML takes the database read side plus the mutated table's write
  side** (through the :class:`~repro.db.Database` facade; sessions
  issue queries only), so update invalidation never interleaves with a
  plan reading that table — while queries and updates on *other*
  tables run concurrently.  DDL and engine close take the database
  write side, draining everything.
* **Recycle-pool state sits behind the pool lock**
  (:mod:`repro.core.pool`) — sessions never touch the pool directly;
  the interpreter takes it only for Algorithm 1 bookkeeping (lookup,
  subsumption search, admission and the eviction it needs).  Operator
  execution overlaps freely across sessions.

Sessions themselves are single-threaded and have exactly one owner — a
DB-API cursor, a wire connection or a harness worker — which closes
it; they are cheap.  The shared state they touch is protected by the
locks above, so opening sessions concurrently is safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

from repro.errors import InterfaceError
from repro.mal.interpreter import ExecutionStats, InvocationResult
from repro.mal.program import MalProgram

if TYPE_CHECKING:
    from repro.db import Database


class Session:
    """One client session: private statistics, shared engine and pool.

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
        #: Statements completed / failed, and the sum of every completed
        #: invocation's record.
        self.queries = 0
        self.errors = 0
        self.stats = ExecutionStats()
        self.closed = False

    # ------------------------------------------------------------------
    def _record(self, run, *args) -> InvocationResult:
        """Call ``run(*args)`` — every entry point ends in
        :meth:`repro.db.Database.run_template` — and add the invocation's
        record to this session's totals."""
        self._check_open()
        try:
            result = run(*args)
        except Exception:
            self.errors += 1
            raise
        self.queries += 1
        self.stats.add(result.stats)
        return result

    def run_template(self, template: Union[str, MalProgram],
                     params: Optional[Mapping[str, Any]] = None
                     ) -> InvocationResult:
        """Run a registered (or given) template in this session."""
        return self._record(self.db.run_template, template, params)

    def execute(self, sql: str, params: Any = None) -> InvocationResult:
        """Compile (against the shared template cache) and run SQL.

        *params* follows the DB-API convention: a sequence binds ``?``
        placeholders, a mapping binds ``:name`` placeholders; any
        parameters on a placeholder-free statement raise
        :class:`~repro.errors.ProgrammingError`.  Placeholder statements
        bind into the cached template without re-compiling, so repeats
        hit the recycler.
        """
        self._check_open()
        return self._record(self.db.prepare(sql).run, params)

    def run_statement(self, stmt, params: Any = None) -> InvocationResult:
        """Run an already-prepared statement in this session.

        The entry point for holders of a
        :class:`~repro.db.PreparedStatement` handle — the network
        server's named prepared statements use it so repeat EXECUTEs
        bind straight into the statement's compiled plan (zero
        parse/plan work) while statistics stay per-session.
        """
        return self._record(stmt.run, params)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the session (idempotent).  Its one owner — a cursor, a
        wire connection or a harness worker — closes it."""
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise InterfaceError(f"{self.name} is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Session({self.name}, queries={self.queries}, "
            f"hits={self.stats.hits})"
        )
