"""The workload runner and measurement helpers for the benchmark suite.

The experimental protocol follows the paper (§7): measurements start
from a hot data / cold pool state (``db.reset_recycler()`` after a
warm-up pass).
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.db import Database
from repro.mal.interpreter import ExecutionStats
from repro.mal.program import MalProgram
from repro.workloads.tpch import build_templates, load_tpch

#: Seconds a worker waits for the others at the start line.
BARRIER_TIMEOUT = 30.0

#: One unit of workload: a registered template name, a compiled program
#: or SQL text, plus its parameters (a mapping of template parameters; for
#: SQL a sequence binds ``?`` and a mapping binds ``:name``).
WorkloadItem = Tuple[Union[str, MalProgram], Any]


@dataclass
class QueryRecord:
    """What one workload item did, tagged with the session that ran it.

    ``stats`` is the invocation's own record (None when the item failed,
    ``error`` then holds the exception); ``pool_*`` is the pool as the
    owning worker saw it right after the item.
    """

    index: int
    session: str
    template: str
    seconds: float
    stats: Optional[ExecutionStats] = None
    value: Any = None
    error: Optional[BaseException] = None
    pool_bytes: int = 0
    pool_entries: int = 0
    #: Disk-tier bytes after the query (0 without a spill tier).
    pool_spilled_bytes: int = 0


@dataclass
class RunResult:
    """One workload run: records in workload order plus their sums."""

    records: List[QueryRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Compile-cache counters over the run: executions that bound into
    #: an already-compiled plan vs. fresh parse/plan work (templates are
    #: pre-compiled by construction and count as neither).
    compile_hits: int = 0
    compile_misses: int = 0

    @property
    def errors(self) -> List[QueryRecord]:
        return [r for r in self.records if r.error is not None]

    @property
    def total(self) -> ExecutionStats:
        """The sum of every completed item's record."""
        total = ExecutionStats()
        for r in self.records:
            if r.stats is not None:
                total.add(r.stats)
        return total

    @property
    def sessions(self) -> Dict[str, ExecutionStats]:
        """Per-session sums (the §3.3 local/global split by client)."""
        out: Dict[str, ExecutionStats] = {}
        for r in self.records:
            if r.stats is not None:
                out.setdefault(r.session, ExecutionStats()).add(r.stats)
        return dict(sorted(out.items()))

    @property
    def hits(self) -> int:
        return self.total.hits

    @property
    def promoted_hits(self) -> int:
        """Hits served from the disk tier (subset of :attr:`hits`)."""
        return self.total.promoted_hits

    @property
    def potential(self) -> int:
        return self.total.n_marked

    @property
    def hit_ratio(self) -> float:
        return self.total.hit_ratio

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def compile_hit_ratio(self) -> float:
        """Fraction of executions with zero parse/plan work."""
        total = self.compile_hits + self.compile_misses
        return self.compile_hits / total if total else 0.0

    def values(self) -> List[Any]:
        """Result values in workload order (None where an item failed)."""
        return [r.value for r in self.records]

    def cumulative_hit_curve(self) -> List[float]:
        """Cumulative hits / cumulative potential after each query
        (the y-axis of Figures 10-11)."""
        out, running = [], ExecutionStats()
        for r in self.records:
            if r.stats is not None:
                running.add(r.stats)
            out.append(running.hit_ratio)
        return out

    def render(self) -> str:
        """Per-session summary table (the concurrent analogue of Fig 4)."""
        header = (
            f"{'session':<12}{'queries':>9}{'hits':>7}{'marked':>8}"
            f"{'local':>7}{'global':>8}{'disk':>6}{'ratio':>8}"
        )
        queries = Counter(r.session for r in self.records
                          if r.stats is not None)
        rows = list(self.sessions.items()) + [("total", self.total)]
        queries["total"] = sum(queries.values())
        lines = [header, "-" * len(header)]
        for name, s in rows:
            lines.append(
                f"{name:<12}{queries[name]:>9}{s.hits:>7}{s.n_marked:>8}"
                f"{s.local_hits:>7}{s.global_hits:>8}"
                f"{s.promoted_hits:>6}{s.hit_ratio:>8.2f}"
            )
        return "\n".join(lines)


def fresh_tpch_db(sf: float = 0.01, seed: int = 42,
                  queries: Optional[Sequence[str]] = None,
                  **db_kwargs) -> Database:
    """A loaded TPC-H database with templates compiled."""
    db = Database(**db_kwargs)
    load_tpch(db, sf=sf, seed=seed)
    build_templates(db, queries=queries)
    return db


def _label(query: Union[str, MalProgram]) -> str:
    """What a failed item is filed under (it has no plan to name it)."""
    return query.name if isinstance(query, MalProgram) else str(query)[:60]


def run_workload(db: Database, items: Iterable[WorkloadItem],
                 sessions: int = 1,
                 on_boundary: Optional[Callable[[int], None]] = None,
                 collect_values: bool = True) -> RunResult:
    """Execute *items* across *sessions* threads sharing the pool.

    Item *i* goes to session ``i % sessions``; each session runs its
    items in workload order on its own thread, all released together
    behind a barrier so the pool sees real contention (with one session
    the run stays on the calling thread).  Records come back in workload
    order whichever session ran them, so they compare 1:1 against a
    serial reference run.  Whatever an item raises is recorded on it and
    never ends the run; every slot is accounted for.

    *on_boundary(i)* is called by the worker that owns item *i* right
    before it runs, outside the item's timer and error capture — the
    hook the update experiments use to inject refresh blocks.  With
    *collect_values* off, result values are dropped as they complete
    (stress runs that would not fit in memory).
    """
    items = list(items)
    n = max(1, min(sessions, len(items)))
    records: List[Optional[QueryRecord]] = [None] * len(items)
    workers = [db.session(f"worker-{i}") for i in range(n)]
    barrier = threading.Barrier(n)

    def drive(worker_idx: int) -> None:
        session = workers[worker_idx]
        owned = range(worker_idx, len(items), n)
        try:
            barrier.wait(timeout=BARRIER_TIMEOUT)
        except threading.BrokenBarrierError as exc:
            # A worker failed to start: every item this one owns is an
            # error, not a silently shorter run.
            for i in owned:
                records[i] = QueryRecord(i, session.name,
                                         _label(items[i][0]), 0.0, error=exc)
            return
        for i in owned:
            query, params = items[i]
            if on_boundary is not None:
                on_boundary(i)
            t0 = time.perf_counter()
            try:
                if isinstance(query, MalProgram) or db.has_template(query):
                    stmt = db.prepare_template(query)
                else:
                    stmt = db.prepare(query)
                r = session.run_statement(stmt, params)
            except Exception as exc:
                records[i] = QueryRecord(i, session.name, _label(query),
                                         time.perf_counter() - t0, error=exc)
                continue
            records[i] = QueryRecord(
                i, session.name, r.stats.template,
                time.perf_counter() - t0, r.stats,
                r.value if collect_values else None,
                pool_bytes=db.pool_bytes,
                pool_entries=db.pool_entries,
                pool_spilled_bytes=db.pool_spilled_bytes,
            )

    before = db.compile_cache_stats
    started = time.perf_counter()
    try:
        if n == 1:
            drive(0)
        else:
            threads = [
                threading.Thread(target=drive, args=(i,), name=w.name)
                for i, w in enumerate(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        for w in workers:
            w.close()
    wall = time.perf_counter() - started
    after = db.compile_cache_stats

    # A worker dying outside the per-item handler must not read as a
    # clean (shorter) run.
    for i, record in enumerate(records):
        if record is None:
            records[i] = QueryRecord(
                i, "<lost>", _label(items[i][0]), 0.0,
                error=RuntimeError("worker thread died before this item"))
    return RunResult(records, wall, after.hits - before.hits,
                     after.misses - before.misses)


def reused_memory(db: Database) -> int:
    """Bytes held by pool entries that were reused at least once."""
    if db.recycler is None:
        return 0
    return sum(
        e.nbytes for e in db.recycler.pool.entries() if e.reuse_count > 0
    )


def reused_entries(db: Database) -> int:
    """Pool entries reused at least once ("reused lines", Fig 7-8)."""
    if db.recycler is None:
        return 0
    return sum(
        1 for e in db.recycler.pool.entries() if e.reuse_count > 0
    )


def profile_template(db: Database, name: str, params_list,
                     ) -> List[Dict[str, float]]:
    """Per-instance profile of one template (Figures 4-5): hit ratio,
    time, and pool memory after each instance."""
    reused: List[int] = []      # sampled before each item = after the last
    run = run_workload(db, [(name, p) for p in params_list],
                       on_boundary=lambda i: reused.append(reused_memory(db)))
    reused = reused[1:] + [reused_memory(db)]
    return [{
        "hit_ratio": r.stats.hit_ratio,
        "seconds": r.seconds,
        "pool_bytes": float(r.pool_bytes),
        "reused_bytes": float(b),
    } for r, b in zip(run.records, reused)]
