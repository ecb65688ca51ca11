"""The database engine: catalogue + interpreter + recycler + template cache.

Since the DB-API front-end (:mod:`repro.dbapi`) became the primary
surface, this facade is the *engine* underneath::

    import repro
    with repro.connect() as conn:        # DB-API 2.0 entry point
        conn.create_table("t", {"k": "int64"}, {"k": range(10)})
        cur = conn.cursor()
        cur.execute("select count(*) from t where k >= ?", (3,))

``Database`` remains fully usable directly, but clients should normally
reach it through :func:`repro.connect`.

Queries compile once into parametrised *templates* (every literal factored
out, LIMIT/OFFSET and substring bounds included, §2.2) cached by normalised
text and the literals' kinds, so repeated queries — even with different
constants — re-execute the same plan and exercise the recycler.  DB-API
placeholders (``?`` / ``:name``) normalise to the same template key, so a
prepared statement executed with fresh parameters binds straight into the
cached template's parameters: :class:`PreparedStatement`.  A DROP TABLE
makes every plan compiled before it stale (see
:attr:`~repro.storage.catalog.Catalog.schema_version`).

Concurrency: the facade is safe to share between threads.  Queries run
under the shared side of a readers-writer lock, DML/DDL under the
exclusive side (so a plan always sees a consistent snapshot of column
versions), template caches are mutex-guarded, and the recycler core has
its own pool lock.  :meth:`Database.session` opens a
:class:`~repro.server.session.Session`, which keeps its own statistics
and runs on the engine's one interpreter, catalogue and recycle pool;
:func:`repro.bench.harness.run_workload` drives a whole workload across
many such sessions.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.admission import AdmissionPolicy
from repro.core.eviction import EvictionPolicy
from repro.core.recycler import Recycler, RecyclerConfig
from repro.core.stats import PoolReport, pool_report
from repro.errors import CatalogError, InterfaceError, ProgrammingError
from repro.mal.interpreter import Interpreter, InvocationResult
from repro.mal.program import Const, MalProgram
from repro.rel.builder import QueryBuilder
from repro.server.locks import TableLockManager
from repro.sql.lexer import normalized_key, tokenize
from repro.sql.params import (
    bind_slot_values,
    coerce_value,
    extract_slots,
    tokens_with_values,
)
from repro.storage.catalog import Catalog, ColumnDef, TableDef


@dataclass(frozen=True)
class CompileCacheStats:
    """Cumulative template-compilation cache counters (SQL statements).

    One *hit* is an execution whose plan came from the cache (or from
    the statement's own compiled reference) with zero parse/plan work;
    one *miss* is a fresh compilation.  Template/builder executions are
    pre-compiled by construction and are not counted.
    """

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.total if self.total else 0.0


def _kind_signature(values: List[Any]) -> Tuple[str, ...]:
    """Kind (num/str/date) of every literal value, in reading order.

    Plans are cached per normalised key *and* kind signature: a plan
    compiled around one kind of values (and whose pool entries carry
    bounds of that kind) must never serve a bind of another kind — a
    new signature compiles, and the planner rejects a kind its columns
    cannot compare with.
    """
    return tuple(coerce_value(v)[0] for v in values)


class PreparedStatement:
    """A tokenised, compile-once SQL statement with DB-API placeholders.

    Obtained via :meth:`Database.prepare` (cursors do this implicitly and
    cache by statement text).  The statement is tokenised once; the
    template key is the literal-blanked token stream, so placeholders and
    inline constants alias to the same cached plan.  Placeholders may
    stand wherever a literal may, LIMIT/OFFSET and substring bounds
    included: every literal is a template parameter.  Compilation happens
    on the first :meth:`bind` (the first parameter set supplies the
    default literal values the planner wants); every later bind only maps
    values onto the existing template's parameters — the recycler sees
    the same plan and serves the repeat from the pool.  A bind whose
    literal kinds differ, or one after a DROP TABLE, compiles afresh.

    Thread-safe: binding mutates nothing but the idempotent compiled
    reference (the shared SQL cache resolves compile races first-wins).
    """

    def __init__(self, db: "Database", sql: str):
        self.db = db
        self.sql = sql
        self.tokens = tokenize(sql)
        self.slots, self.paramstyle = extract_slots(self.tokens)
        self.key = normalized_key(self.tokens)
        self._compiled: Optional[Any] = None

    @property
    def n_placeholders(self) -> int:
        return sum(1 for kind, _ in self.slots if kind != "inline")

    # ------------------------------------------------------------------
    def _ensure_compiled(self, values: List[Any]):
        """Compile (or fetch) the template, using *values* as defaults.

        Plans are cached per normalised key and kind signature, and
        serve only while the catalogue's schema version is the one they
        were planned at.
        """
        sig = _kind_signature(values)
        compiled = self._compiled
        if compiled is not None and compiled.kind_sig == sig and \
                compiled.schema_version == self.db.catalog.schema_version:
            # Memoised fast path: one counter bump is the only shared
            # state touched (the slow paths below count inside the lock
            # sections they already hold).
            with self.db._cache_lock:
                self.db._compile_hits += 1
            return compiled
        compiled = self.db._cached_template(self.key, sig)
        if compiled is None:
            from repro.sql.planner import compile_tokens

            tokens = tokens_with_values(self.tokens, self.slots, values)
            # Compilation reads the catalogue: take the snapshot lock so
            # concurrent DDL cannot mutate table definitions mid-plan.
            with self.db.locks.database.read_locked():
                fresh = compile_tokens(self.db.catalog, tokens, self.key)
            fresh.kind_sig = sig
            compiled = self.db._cache_template(self.key, fresh)
        self._compiled = compiled
        return compiled

    # ------------------------------------------------------------------
    def bind(self, params: Any = None) -> Dict[str, Any]:
        """Template parameter bindings for one execution.

        Placeholder statements take a sequence (qmark) or mapping
        (named); a placeholder-free statement takes none.
        """
        values = bind_slot_values(self.slots, self.paramstyle, params)
        return self._ensure_compiled(values).bind(values)

    @property
    def program(self) -> MalProgram:
        if self._compiled is None:
            raise InterfaceError(
                "statement is not compiled yet — bind() a parameter set"
            )
        return self._compiled.program

    # ------------------------------------------------------------------
    def run(self, params: Any = None) -> InvocationResult:
        """Bind *params* (compiling on the first bind), then run the plan
        through :meth:`Database.run_template`, where every plan runs."""
        bound = self.bind(params)
        return self.db.run_template(self.program, bound)

    def __repr__(self) -> str:
        return (
            f"PreparedStatement({self.sql[:40]!r}, "
            f"paramstyle={self.paramstyle}, "
            f"placeholders={self.n_placeholders})"
        )


def synchronize(recycler: Recycler, catalog: Catalog, table: str) -> int:
    """Drop the pool entries that a write to, or the drop of, *table*
    made stale (§6.4 immediate invalidation); returns how many went.

    The one invalidation seam: every DML method and ``drop_table`` call
    it through this module's global, after the catalogue has bumped the
    versions, so a wrapper here sees every invalidation event.
    """
    return recycler.on_update(table, catalog)


class Database:
    """An embedded column-store instance with an optional recycler.

    Args:
        recycle: attach the recycler (default True).  ``False`` gives the
            paper's "naive" baseline.
        admission/eviction: recycler policies (default keepall + LRU).
        max_bytes/max_entries: recycle-pool resource limits (None =
            unlimited).
        subsumption: enable §5 run-time subsumption (single and
            combined covers).
        spill_dir: directory for the disk tier of the recycle pool;
            eviction victims whose benefit exceeds the measured cost of
            a disk round trip are demoted there instead of destroyed,
            and promoted back on a later match.  ``None`` (the default)
            keeps the classic single-tier pool.
        spill_limit_bytes: byte quota of the spill directory (None =
            unlimited disk tier).
        clock: injectable time source for deterministic tests.

    Spill-tier quickstart::

        db = Database(max_bytes=64 << 20, spill_dir="/tmp/repro-spill",
                      spill_limit_bytes=1 << 30)
    """

    def __init__(
        self,
        *,
        recycle: bool = True,
        admission: Optional[AdmissionPolicy] = None,
        eviction: Optional[EvictionPolicy] = None,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        subsumption: bool = True,
        spill_dir: Optional[str] = None,
        spill_limit_bytes: Optional[int] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.catalog = Catalog()
        self.recycler: Optional[Recycler] = None
        if recycle:
            self.recycler = Recycler(
                admission=admission,
                eviction=eviction,
                config=RecyclerConfig(
                    max_bytes=max_bytes,
                    max_entries=max_entries,
                    subsumption=subsumption,
                    spill_dir=spill_dir,
                    spill_limit_bytes=spill_limit_bytes,
                ),
                clock=clock,
            )
        self.interpreter = Interpreter(self.catalog, recycler=self.recycler,
                                       clock=clock)
        self.clock = clock
        self._templates: Dict[str, MalProgram] = {}
        #: (normalised key, literal kinds) -> compiled plan (see
        #: :meth:`_cached_template`).
        self._sql_cache: Dict[Tuple[str, Tuple[str, ...]], Any] = {}
        self._prepared: "OrderedDict[str, PreparedStatement]" = \
            OrderedDict()
        #: Guards the template/SQL/prepared caches (compile races resolve
        #: first-wins).
        self._cache_lock = threading.Lock()
        #: Compile-cache counters (under ``_cache_lock``): executions
        #: served without parse/plan work vs. fresh compilations.
        self._compile_hits = 0
        self._compile_misses = 0
        #: The database- and table-level lock tiers: queries hold the
        #: database read side plus per-table read locks, DML the database
        #: read side plus the mutated table's write lock, DDL/close the
        #: database write side (see :mod:`repro.server.locks`).
        self.locks = TableLockManager()
        #: Session IDs have their own atomic counter — the template-cache
        #: lock is not involved (see the lock inventory in
        #: ``docs/ARCHITECTURE.md``).
        self._session_ids = itertools.count(1)
        self._closed = False
        #: Serialises close(): two racing closers (a draining network
        #: server and an exiting ``with`` block) must not both run the
        #: recycler teardown.
        self._close_lock = threading.Lock()

    def _check_open(self) -> None:
        """Queries/DML on a closed engine must fail loudly: close() has
        torn down the spill run directory, so continuing would fail
        obscurely (or repopulate a pool nobody will clean up).

        Query paths must ALSO re-check under the read lock
        (:meth:`run_template`): close() drains readers via the write
        side, so only a check made *inside* the read lock is guaranteed
        to precede the teardown."""
        if self._closed:
            raise InterfaceError("database is closed")

    def _bind_tables(self, program: MalProgram) -> frozenset:
        """The tables a compiled plan binds — its table-lock read set.

        Derived from the plan's ``sql.bind`` / ``sql.bindidx``
        instructions and cached on the program (plans are immutable
        after compilation).  A ``bindidx`` also reads the primary-key
        side of its join index, so that table joins the set; foreign
        keys are declared before such a plan can compile and go only
        with a dropped table, which retires the plan itself.
        """
        refs = getattr(program, "_bind_refs", None)
        if refs is None:
            names = set()
            for ins in program.instrs:
                if ins.opname not in ("sql.bind", "sql.bindidx"):
                    continue
                args = ins.args
                if not args or not isinstance(args[0], Const):
                    continue
                names.add(args[0].value)
                if ins.opname == "sql.bindidx" and len(args) > 1 \
                        and isinstance(args[1], Const):
                    fk = self.catalog.foreign_key_for(args[0].value,
                                                      args[1].value)
                    if fk is not None:
                        names.add(fk.pk_table)
            refs = frozenset(names)
            program._bind_refs = refs
        return refs

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: Mapping[str, str],
                     data: Mapping[str, Sequence]):
        """Create a table from ``{column: dtype}`` plus column-wise data."""
        self._check_open()
        tdef = TableDef(name, [ColumnDef(c, dt) for c, dt in columns.items()])
        with self.locks.ddl_locked():
            return self.catalog.create_table(tdef, data)

    def drop_table(self, name: str) -> None:
        """Drop *name* and its foreign keys; every plan compiled before
        this is stale from now on (the catalogue's schema version)."""
        self._check_open()
        with self.locks.ddl_locked():
            self.catalog.drop_table(name)
            if self.recycler is not None:
                # Dependent intermediates must go at once (§6.3 DDL).
                synchronize(self.recycler, self.catalog, name)

    def add_foreign_key(self, name: str, fk_table: str, fk_column: str,
                        pk_table: str, pk_column: str) -> None:
        self._check_open()
        with self.locks.ddl_locked():
            self.catalog.add_foreign_key(name, fk_table, fk_column,
                                         pk_table, pk_column)

    # ------------------------------------------------------------------
    # DML (update synchronisation per §6)
    # ------------------------------------------------------------------
    def insert(self, table: str, rows: Mapping[str, Sequence]) -> None:
        self._check_open()
        with self.locks.dml_locked(table):
            self.catalog.insert(table, rows)
            if self.recycler is not None:
                synchronize(self.recycler, self.catalog, table)

    def delete_oids(self, table: str, oids: Sequence[int]) -> None:
        self._check_open()
        with self.locks.dml_locked(table):
            self.catalog.delete_oids(table, oids)
            if self.recycler is not None:
                synchronize(self.recycler, self.catalog, table)

    def update_column(self, table: str, column: str, oids: Sequence[int],
                      values: Sequence) -> None:
        self._check_open()
        with self.locks.dml_locked(table):
            self.catalog.update_column(table, column, oids, values)
            if self.recycler is not None:
                synchronize(self.recycler, self.catalog, table)

    # ------------------------------------------------------------------
    # Templates
    # ------------------------------------------------------------------
    def builder(self, name: str) -> QueryBuilder:
        """A fresh :class:`QueryBuilder` against this database."""
        return QueryBuilder(self.catalog, name)

    def register_template(self, program: MalProgram) -> MalProgram:
        """Put a compiled template in the query cache."""
        with self._cache_lock:
            self._templates[program.name] = program
        return program

    def template(self, name: str) -> MalProgram:
        try:
            with self._cache_lock:
                return self._templates[name]
        except KeyError:
            raise CatalogError(f"unknown template {name!r}")

    def has_template(self, name: str) -> bool:
        with self._cache_lock:
            return name in self._templates

    def run_template(self, template: Union[str, MalProgram],
                     params: Optional[Mapping[str, Any]] = None
                     ) -> InvocationResult:
        """Run a registered (or given) template: the one place a plan runs.

        SQL ends here too — :meth:`PreparedStatement.run` binds, then
        calls this.  *params* maps the program's parameter names to
        values.  The invocation holds the database read lock plus the
        read lock of every table the plan binds (sorted-name order), and
        re-checks the closed flag inside them: close() drains readers
        through the write side, so only that check is sure to precede
        the teardown.
        """
        self._check_open()
        program = (
            self.template(template) if isinstance(template, str) else template
        )
        if params is not None and not isinstance(params, Mapping):
            raise ProgrammingError(
                "compiled templates bind a mapping of parameter names, "
                f"got {type(params).__name__}"
            )
        with self.locks.query_locked(self._bind_tables(program)):
            self._check_open()
            return self.interpreter.run(program, params)

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------
    def _cached_template(self, key: str,
                         sig: Tuple[str, ...]) -> Optional[Any]:
        """The plan of *key* for literals of kinds *sig*, unless it was
        planned before the latest DROP TABLE.

        Every literal is a template parameter, so one plan per key and
        kinds serves every instance; a kind change (a string where the
        compiling instance had a number) compiles its own plan.
        """
        with self._cache_lock:
            compiled = self._sql_cache.get((key, sig))
            if compiled is None or \
                    compiled.schema_version != self.catalog.schema_version:
                return None
            self._compile_hits += 1
            return compiled

    def _cache_template(self, key: str, compiled):
        """First-wins insert of a plan under ``(key, compiled.kind_sig)``;
        a plan of a newer schema version replaces a stale one."""
        with self._cache_lock:
            # The caller did real parse/plan work to get here (even if a
            # concurrent compile won the insert race): count the miss
            # under the lock already being taken for the insert.
            self._compile_misses += 1
            slot = (key, compiled.kind_sig)
            cached = self._sql_cache.get(slot)
            if cached is None or \
                    cached.schema_version < compiled.schema_version:
                self._sql_cache[slot] = cached = compiled
            return cached

    @property
    def compile_cache_stats(self) -> CompileCacheStats:
        """Cumulative compile-cache counters for SQL statements.

        A *hit* means an execution bound into an already-compiled plan
        (zero parse/plan work); a *miss* means the statement was parsed
        and planned.  The bench harness reports the rate per run — see
        :func:`repro.bench.harness.run_workload`.
        """
        with self._cache_lock:
            return CompileCacheStats(self._compile_hits,
                                     self._compile_misses)

    #: Bound on the by-text prepared-statement cache.  Inline-literal
    #: traffic produces one distinct text per literal set, so this layer
    #: must not grow without bound (plans themselves are cached by
    #: normalised key and are shared regardless).
    PREPARED_CACHE_SIZE = 512

    def prepare(self, sql: str) -> PreparedStatement:
        """Tokenise *sql* once into a reusable :class:`PreparedStatement`.

        Statements are cached by raw text (shared across sessions and
        cursors) with LRU bounding, so repeated executions skip even the
        tokeniser.
        """
        self._check_open()
        with self._cache_lock:
            stmt = self._prepared.get(sql)
            if stmt is not None:
                self._prepared.move_to_end(sql)
        if stmt is None:
            fresh = PreparedStatement(self, sql)
            with self._cache_lock:
                stmt = self._prepared.setdefault(sql, fresh)
                self._prepared.move_to_end(sql)
                while len(self._prepared) > self.PREPARED_CACHE_SIZE:
                    self._prepared.popitem(last=False)
        return stmt

    def execute(self, sql: str, params: Any = None) -> InvocationResult:
        """Compile (with template caching) and run a SQL statement.

        *params* is a DB-API parameter set: a sequence for ``?``, a
        mapping for ``:name``, nothing on a placeholder-free statement.
        Literal constants are factored out into template parameters; the
        same query shape with different constants reuses the compiled
        template — and, through the recycler, its intermediates.
        """
        return self.prepare(sql).run(params)

    # ------------------------------------------------------------------
    # Sessions (multi-threaded execution; see repro.server)
    # ------------------------------------------------------------------
    def session(self, name: Optional[str] = None) -> "Session":  # noqa: F821
        """Open a :class:`~repro.server.session.Session` on this database.

        Each session keeps its own statistics and shares the catalogue,
        the template caches, the interpreter and the recycle pool.
        """
        from repro.server.session import Session

        self._check_open()
        # itertools.count.__next__ is atomic in CPython — no lock, and in
        # particular not the template-cache lock (its old double duty).
        return Session(self, session_id=next(self._session_ids), name=name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release engine resources: empty the pool, tear down spill state.

        With a two-tier pool this deletes every spill file and removes
        the engine's private ``run-<pid>-<seq>`` directory under the
        configured ``spill_dir``.  Idempotent; the DB-API
        :class:`~repro.dbapi.Connection` calls it on exit when it owns
        the engine.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        # Drain in-flight queries and DML before teardown: both hold
        # the read side of the database lock for their whole invocation,
        # so taking the write side here means no invocation can admit
        # into (or demote out of) the pool while — or after — it is
        # being torn down.  New work fails fast on the _closed flag
        # above.
        with self.locks.ddl_locked():
            if self.recycler is not None:
                self.recycler.close()

    # ------------------------------------------------------------------
    # Recycler control / introspection
    # ------------------------------------------------------------------
    def recycler_report(self) -> Optional[PoolReport]:
        if self.recycler is None:
            return None
        with self.recycler.pool.lock:
            return pool_report(self.recycler.pool)

    def reset_recycler(self) -> int:
        """Empty the recycle pool (the paper's experiment preparation)."""
        if self.recycler is None:
            return 0
        return self.recycler.recycle_reset()

    @property
    def pool_bytes(self) -> int:
        """Memory-tier pool bytes (resident entries)."""
        return self.recycler.pool.total_bytes if self.recycler else 0

    @property
    def pool_spilled_bytes(self) -> int:
        """Disk-tier pool bytes (spilled entries)."""
        return self.recycler.pool.spilled_bytes if self.recycler else 0

    @property
    def pool_entries(self) -> int:
        return len(self.recycler.pool) if self.recycler else 0
