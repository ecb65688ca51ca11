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

Queries compile once into parametrised *templates* (literals factored out,
§2.2) cached by normalised text, so repeated queries — even with different
constants — re-execute the same plan and exercise the recycler.  DB-API
placeholders (``?`` / ``:name``) normalise to the same template key, so a
prepared statement executed with fresh parameters binds straight into the
cached template's parameters: :class:`PreparedStatement`.

Concurrency: the facade is safe to share between threads.  Queries run
under the shared side of a readers-writer lock, DML/DDL under the
exclusive side (so a plan always sees a consistent snapshot of column
versions), template caches are mutex-guarded, and the recycler core has
its own pool lock.  :meth:`Database.session` opens a
:class:`~repro.server.session.Session` with its own interpreter over the
shared catalogue and recycle pool;
:func:`repro.bench.harness.run_workload` drives a whole workload across
many such sessions.
"""

from __future__ import annotations

import contextlib
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
from repro.core.invalidation import synchronize
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


def baked_free_positions(compiled) -> set:
    """Literal reading-order positions a compiled plan parametrises.

    Positions outside this set (LIMIT, OFFSET, substring bounds) are
    *baked into* the plan at compile time: instances differing there
    need different plans.
    """
    free = set()
    for name in compiled.program.params:
        if name.startswith("p") and name[1:].isdigit():
            free.add(int(name[1:]))
    for name, default in compiled.default_params.items():
        if isinstance(default, tuple):
            idx = int(name[1:])
            free.update(range(idx, idx + len(default)))
    return free


def _baked_values(compiled, values: List[Any]) -> Tuple:
    """The literal values a plan bakes in (its cache discriminator)."""
    free = baked_free_positions(compiled)
    return tuple(
        (i, v) for i, v in enumerate(values) if i not in free
    )


def _kind_signature(values: List[Any]) -> Tuple[str, ...]:
    """Kind (num/str/date) of every literal value, in reading order.

    Plans are cached per kind signature as well as per baked values: a
    plan compiled around one kind of values (and whose pool entries
    carry bounds of that kind) must never serve a bind of another kind
    — each signature gets its own variant, exactly as each
    baked-literal tuple does.
    """
    from repro.sql.params import coerce_value

    return tuple(coerce_value(v)[0] for v in values)


class PreparedStatement:
    """A tokenised, compile-once SQL statement with DB-API placeholders.

    Obtained via :meth:`Database.prepare` (cursors do this implicitly and
    cache by statement text).  The statement is tokenised once; the
    template key is the literal-blanked token stream, so placeholders and
    inline constants alias to the same cached plan.  Compilation happens
    on the first :meth:`bind` (the first parameter set supplies the
    default literal values the planner wants); every later bind only maps
    values onto the existing template's parameters — the recycler sees
    the same plan and serves the repeat from the pool.

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

        Plans are cached per *baked* literal values, not just per
        normalised key: LIMIT/OFFSET and substring bounds are compiled
        into the plan, so instances of one key that differ in those
        positions must not share a plan (they would silently return the
        first compilation's results).
        """
        sig = _kind_signature(values)
        if self._compiled is not None and self._compiled.kind_sig == sig:
            # Memoised fast path: one counter bump is the only shared
            # state touched (the slow paths below count inside the lock
            # sections they already hold).
            self.db._note_compile(hit=True)
            return self._compiled
        compiled = self.db._cached_template(self.key, values, sig)
        if compiled is None:
            from repro.sql.planner import compile_tokens

            tokens = tokens_with_values(self.tokens, self.slots, values)
            # Compilation reads the catalogue: take the snapshot lock so
            # concurrent DDL cannot mutate table definitions mid-plan.
            with self.db.locks.database.read_locked():
                fresh = compile_tokens(self.db.catalog, tokens, self.key)
            compiled = self.db._cache_template(self.key, fresh, values,
                                               sig)
        self._check_placeholder_positions(compiled)
        self._compiled = compiled
        return compiled

    def _check_placeholder_positions(self, compiled) -> None:
        """Reject placeholders the template cannot actually parametrise.

        LIMIT/OFFSET and substring bounds are compiled into the plan, so
        a placeholder there would silently pin the first bound value for
        every later execution — fail loudly instead.
        """
        allowed = baked_free_positions(compiled)
        for position, (kind, _) in enumerate(self.slots):
            if kind != "inline" and position not in allowed:
                raise ProgrammingError(
                    "placeholder binds to a non-parametrised position "
                    f"(literal #{position}); LIMIT, OFFSET and substring "
                    "bounds are compiled into the template"
                )

    # ------------------------------------------------------------------
    def bind(self, params: Any = None) -> Dict[str, Any]:
        """Template parameter bindings for one execution.

        Placeholder statements take a sequence (qmark) or mapping
        (named).  On a placeholder-free statement a mapping is applied as
        raw template-parameter overrides — the pre-DB-API calling
        convention, kept for compatibility.
        """
        if self.paramstyle is None and isinstance(params, Mapping) \
                and params:
            values = bind_slot_values(self.slots, None, None)
            compiled = self._ensure_compiled(values)
            return Database.bind_literals(compiled, values, dict(params))
        values = bind_slot_values(self.slots, self.paramstyle, params)
        compiled = self._ensure_compiled(values)
        return Database.bind_literals(compiled, values)

    @property
    def program(self) -> MalProgram:
        if self._compiled is None:
            raise InterfaceError(
                "statement is not compiled yet — bind() a parameter set"
            )
        return self._compiled.program

    # ------------------------------------------------------------------
    def run(self, params: Any = None,
            interpreter: Optional[Interpreter] = None) -> InvocationResult:
        """One compile→bind→run invocation of this statement.

        The single execution pipeline every front door funnels into:
        :meth:`Database.execute`, :meth:`Database.run_template` (via
        :class:`PreparedTemplate`), builder programs, and the DB-API
        cursors through their sessions.  Compilation happens on the
        first bind only; *interpreter* selects whose execution state the
        invocation uses (a session's, or the engine's default), and the
        run holds the engine's read lock for the whole invocation.
        """
        bound = self.bind(params)
        interp = interpreter if interpreter is not None \
            else self.db.interpreter
        with self.db.query_locked(self.program):
            return interp.run(self.program, bound)

    def __repr__(self) -> str:
        return (
            f"PreparedStatement({self.sql[:40]!r}, "
            f"paramstyle={self.paramstyle}, "
            f"placeholders={self.n_placeholders})"
        )


class PreparedTemplate(PreparedStatement):
    """A pre-compiled template on the same bind→run pipeline.

    Wraps a :class:`~repro.mal.program.MalProgram` — a registered named
    template or a builder product — so the template execution path is
    the *same* pipeline SQL statements use (:meth:`PreparedStatement.run`),
    just with the compile step satisfied by construction.  Binding takes
    a mapping of the program's parameter names.
    """

    def __init__(self, db: "Database", program: MalProgram):
        self.db = db
        self.sql = None
        self.tokens = []
        self.slots = []
        self.paramstyle = None
        self.key = f"template:{program.name}"
        self._compiled = None
        self._program = program

    def bind(self, params: Any = None) -> Dict[str, Any]:
        if params is None:
            return {}
        if not isinstance(params, Mapping):
            raise ProgrammingError(
                "compiled templates bind a mapping of parameter names, "
                f"got {type(params).__name__}"
            )
        return dict(params)

    @property
    def program(self) -> MalProgram:
        return self._program

    def __repr__(self) -> str:
        return f"PreparedTemplate({self._program.name!r})"


class Database:
    """An embedded column-store instance with an optional recycler.

    Args:
        recycle: attach the recycler (default True).  ``False`` gives the
            paper's "naive" baseline.
        admission/eviction: recycler policies (default keepall + LRU).
        max_bytes/max_entries: recycle-pool resource limits (None =
            unlimited).
        subsumption/combined_subsumption: enable §5 features.
        propagate_selects: enable the §6.3 delta-propagation extension.
        spill_dir: directory for the disk tier of the recycle pool;
            eviction victims whose benefit exceeds the measured cost of
            a disk round trip are demoted there instead of destroyed,
            and promoted back on a later match.  ``None`` (the default)
            keeps the classic single-tier pool.
        spill_limit_bytes: byte quota of the spill directory (None =
            unlimited disk tier).
        pool_shards: number of recycle-pool lock shards (1 = the old
            single-lock pool; see :mod:`repro.core.pool`).
        morsel_workers: process-wide worker count for morsel-parallel
            scans (None = leave the current setting; see
            :mod:`repro.mal.parallel`).
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
        combined_subsumption: bool = True,
        propagate_selects: bool = False,
        spill_dir: Optional[str] = None,
        spill_limit_bytes: Optional[int] = None,
        pool_shards: int = 8,
        morsel_workers: Optional[int] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if morsel_workers is not None:
            from repro.mal.parallel import configure as _configure_morsels
            _configure_morsels(workers=morsel_workers)
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
                    combined_subsumption=combined_subsumption,
                    propagate_selects=propagate_selects,
                    spill_dir=spill_dir,
                    spill_limit_bytes=spill_limit_bytes,
                    pool_shards=pool_shards,
                ),
                clock=clock,
            )
        self.interpreter = Interpreter(self.catalog, recycler=self.recycler,
                                       clock=clock)
        self.clock = clock
        self._templates: Dict[str, MalProgram] = {}
        #: normalised key -> list of plan variants (one per distinct
        #: baked-literal tuple; see :meth:`_cached_template`).
        self._sql_cache: Dict[str, List[Any]] = {}
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
        (:meth:`query_locked`): close() drains readers via the write
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
        keys are declared before such a plan can compile and are never
        retracted, so the cached set cannot go stale.
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

    @contextlib.contextmanager
    def query_locked(self, program: Optional[MalProgram] = None):
        """Context manager for running one query invocation.

        Takes the database read lock plus the read lock of every table
        the plan binds (sorted-name order; all tables when no *program*
        is given), and re-checks the closed flag inside, closing the
        window where close() completes between a caller's early
        _check_open and its lock acquisition (the torn-down engine must
        not execute)."""
        if program is not None:
            tables = self._bind_tables(program)
        else:
            tables = self.catalog.table_names()
        with self.locks.query_locked(tables):
            self._check_open()
            yield

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: Mapping[str, str],
                     data: Mapping[str, Sequence],
                     primary_key: Optional[str] = None):
        """Create a table from ``{column: dtype}`` plus column-wise data."""
        self._check_open()
        tdef = TableDef(
            name,
            [ColumnDef(c, dt) for c, dt in columns.items()],
            primary_key=primary_key,
        )
        with self.locks.ddl_locked():
            return self.catalog.create_table(tdef, data)

    def drop_table(self, name: str) -> None:
        self._check_open()
        with self.locks.ddl_locked():
            self.catalog.drop_table(name)
            if self.recycler is not None:
                # Dependent intermediates must go at once (§6.3 DDL).
                self.recycler.on_drop_table(name)

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
            delta = self.catalog.insert(table, rows)
            if self.recycler is not None:
                synchronize(self.recycler, self.catalog, delta)

    def delete_oids(self, table: str, oids: Sequence[int]) -> None:
        self._check_open()
        with self.locks.dml_locked(table):
            delta = self.catalog.delete_oids(table, oids)
            if self.recycler is not None:
                synchronize(self.recycler, self.catalog, delta)

    def update_column(self, table: str, column: str, oids: Sequence[int],
                      values: Sequence) -> None:
        self._check_open()
        with self.locks.dml_locked(table):
            delta = self.catalog.update_column(table, column, oids, values)
            if self.recycler is not None:
                synchronize(self.recycler, self.catalog, delta)

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

    def prepare_template(self, template: Union[str, MalProgram]
                         ) -> PreparedTemplate:
        """Wrap a registered (or given) compiled template for execution.

        The template analogue of :meth:`prepare`: the returned
        :class:`PreparedTemplate` runs through the same
        compile→bind→run pipeline as SQL statements, with the compile
        step pre-satisfied.
        """
        self._check_open()
        program = (
            self.template(template) if isinstance(template, str) else template
        )
        return PreparedTemplate(self, program)

    def run_template(self, template: Union[str, MalProgram],
                     params: Optional[Dict[str, Any]] = None
                     ) -> InvocationResult:
        """Execute a cached (or given) template with parameter bindings."""
        return self.prepare_template(template).run(params)

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------
    def _cached_template(self, key: str, values: List[Any],
                         sig: Tuple[str, ...]) -> Optional[Any]:
        """The cached plan for *key* matching *values*' baked literals
        and kind signature.

        One normalised key usually holds exactly one plan; keys with
        non-parametrised literal positions (LIMIT/OFFSET/substring
        bounds) hold one *variant* per distinct baked-value tuple, and
        value-kind changes (a string where the compiling instance had a
        number) select their own variant too — an instance never
        silently runs a plan compiled for different baked constants or
        differently-typed values.
        """
        with self._cache_lock:
            variants = self._sql_cache.get(key)
            if variants:
                for compiled in variants:
                    if compiled.kind_sig == sig and \
                            _baked_values(compiled, values) == \
                            compiled.baked_values:
                        self._compile_hits += 1
                        return compiled
            return None

    #: Bound on plan variants kept per normalised key.  Only statements
    #: with *baked* literal positions (LIMIT/OFFSET/substring bounds)
    #: ever grow past one variant; inline-literal paging loops would
    #: otherwise accumulate a plan per distinct page bound.
    VARIANTS_PER_KEY = 32

    def _cache_template(self, key: str, compiled, values: List[Any],
                        sig: Tuple[str, ...]):
        """First-wins insert of a plan variant under its discriminators."""
        compiled.baked_values = _baked_values(compiled, values)
        compiled.kind_sig = sig
        with self._cache_lock:
            # The caller did real parse/plan work to get here (even if a
            # concurrent compile won the insert race): count the miss
            # under the lock already being taken for the insert.
            self._compile_misses += 1
            variants = self._sql_cache.setdefault(key, [])
            for existing in variants:
                if existing.kind_sig == sig and \
                        existing.baked_values == compiled.baked_values:
                    return existing
            variants.append(compiled)
            if len(variants) > self.VARIANTS_PER_KEY:
                variants.pop(0)             # FIFO; recompiles are cheap
            return compiled

    def _note_compile(self, hit: bool) -> None:
        """Counter bump for the memoised statement fast path.

        The variant-cache paths count inside :meth:`_cached_template` /
        :meth:`_cache_template` (under the lock they already hold); only
        the fast path — no other shared state touched — pays this one
        acquisition.
        """
        with self._cache_lock:
            if hit:
                self._compile_hits += 1
            else:
                self._compile_misses += 1

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

    @staticmethod
    def bind_literals(compiled, literals: List[Any],
                      params: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, Any]:
        """Bind one SQL instance's literals to its template's parameters.

        Arity mismatches raise :class:`~repro.errors.ProgrammingError`:
        a template compiled from ``k`` literals must be bound with
        exactly the literals its parameters reference — IN-lists
        included — never a silent partial slice.
        """
        bound = {}
        for name in compiled.program.params:
            if name.startswith("p") and name[1:].isdigit():
                idx = int(name[1:])
                if idx >= len(literals):
                    raise ProgrammingError(
                        f"template parameter {name} needs literal "
                        f"#{idx} but only {len(literals)} literal(s) "
                        "were supplied"
                    )
                bound[name] = literals[idx]
        # IN-lists bind the whole tuple to the first literal's parameter.
        for name, default in compiled.default_params.items():
            if isinstance(default, tuple) and name in bound:
                idx = int(name[1:])
                values = tuple(literals[idx:idx + len(default)])
                if len(values) != len(default):
                    raise ProgrammingError(
                        f"IN-list parameter {name} expects "
                        f"{len(default)} value(s), got {len(values)}: "
                        "the template's IN-list arity is fixed"
                    )
                bound[name] = values
        if params:
            bound.update(params)
        return bound

    def execute(self, sql: str, params: Any = None) -> InvocationResult:
        """Compile (with template caching) and run a SQL statement.

        *params* may be a DB-API parameter set (sequence for ``?``,
        mapping for ``:name``) or, on a placeholder-free statement, a
        mapping of raw template-parameter overrides.
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

        Each session owns its interpreter (and execution stacks) but
        shares the catalogue, the template caches and the recycle pool.
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
        with self.recycler.pool.all_locked():
            return pool_report(self.recycler.pool)

    def reset_recycler(self) -> int:
        """Empty the recycle pool (the paper's experiment preparation)."""
        if self.recycler is None:
            return 0
        return self.recycler.recycle_reset()

    @property
    def pool_bytes(self) -> int:
        """Memory-tier pool bytes (resident entries)."""
        return self.recycler.memory_used if self.recycler else 0

    @property
    def pool_spilled_bytes(self) -> int:
        """Disk-tier pool bytes (spilled entries)."""
        return self.recycler.spilled_bytes if self.recycler else 0

    @property
    def pool_entries(self) -> int:
        return self.recycler.entry_count if self.recycler else 0
