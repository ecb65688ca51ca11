"""The linear MAL interpreter with recycler run-time support.

Plans are interpreted instruction-at-a-time (paper §2.2).  For instructions
the optimiser marked for recycling, the interpreter wraps execution with the
two recycler hooks of Algorithm 1:

* ``recycleEntry`` — search the recycle pool for a matching (or subsuming)
  intermediate and reuse it instead of executing;
* ``recycleExit`` — after a genuine execution, offer the result to the pool
  under the active admission policy.

Before the walk, the recycler may *serve* the whole invocation: when the
pool holds every marked instruction's result, found top-down from the
program's frontier, it books them all at once and ``recycleEntry`` hands
each back without a pool lookup (:meth:`Recycler.serve_frontier
<repro.core.recycler.Recycler.serve_frontier>`).

The interpreter itself stays policy-free: everything recycling-related is
delegated to the :class:`~repro.core.recycler.Recycler` passed in.

Threading: an interpreter keeps no per-run state (each :meth:`run` has
its own stack), so one instance per engine serves every session and
thread at once; the recycler hooks synchronise internally (the pool lock,
:mod:`repro.core.pool`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import InterpreterError
from repro.mal.operators import get_op
from repro.mal.program import Instr, MalProgram, VarRef
from repro.storage.catalog import Catalog


@dataclass
class ExecutionStats:
    """The one counter record: what an invocation counted.

    Every wider scope is a plain sum of these: a session's totals and a
    workload run's aggregates through :meth:`add`, the recycler's
    lifetime :class:`~repro.core.recycler.RecyclerTotals` through its
    own ``add`` over the counters the two share, under the same names.

    ``potential_time`` is the paper's "potential savings": total time spent
    executing monitored instructions (Table II).  ``saved_time`` estimates
    realised savings as the recorded cost of each reused intermediate.
    """

    template: str = ""
    wall_time: float = 0.0
    n_instructions: int = 0
    n_marked: int = 0
    n_marked_nonbind: int = 0
    exact_hits: int = 0
    subsumed_hits: int = 0
    #: hits served from the disk tier — the matched (or subsuming) entry
    #: was spilled and had to be promoted back into memory first.
    promoted_hits: int = 0
    local_hits: int = 0
    global_hits: int = 0
    #: hits excluding ``sql.bind`` — Table II counts commonalities over
    #: non-bind instructions only.
    local_hits_nonbind: int = 0
    global_hits_nonbind: int = 0
    potential_time: float = 0.0
    saved_time: float = 0.0
    saved_local: float = 0.0
    saved_global: float = 0.0
    admissions: int = 0
    admitted_bytes: int = 0
    evictions: int = 0
    demotions: int = 0

    @property
    def hits(self) -> int:
        return self.exact_hits + self.subsumed_hits

    @property
    def hit_ratio(self) -> float:
        """Hits over potential hits (marked instructions), as in Fig. 4-5."""
        if self.n_marked == 0:
            return 0.0
        return self.hits / self.n_marked

    def add(self, other: "ExecutionStats") -> "ExecutionStats":
        """Sum every counter of *other* into this record; returns self.

        Spelled out field by field: plain attribute updates are what
        CPython specialises, and going through ``__dict__`` here would
        slow every later ``stats.x += 1`` on the same object.
        """
        self.wall_time += other.wall_time
        self.n_instructions += other.n_instructions
        self.n_marked += other.n_marked
        self.n_marked_nonbind += other.n_marked_nonbind
        self.exact_hits += other.exact_hits
        self.subsumed_hits += other.subsumed_hits
        self.promoted_hits += other.promoted_hits
        self.local_hits += other.local_hits
        self.global_hits += other.global_hits
        self.local_hits_nonbind += other.local_hits_nonbind
        self.global_hits_nonbind += other.global_hits_nonbind
        self.potential_time += other.potential_time
        self.saved_time += other.saved_time
        self.saved_local += other.saved_local
        self.saved_global += other.saved_global
        self.admissions += other.admissions
        self.admitted_bytes += other.admitted_bytes
        self.evictions += other.evictions
        self.demotions += other.demotions
        return self

    def as_dict(self) -> Dict[str, Any]:
        """Every field plus the derived ``hits``, keyed by attribute name."""
        return {**vars(self), "hits": self.hits}


@dataclass
class InvocationResult:
    """What one template invocation returns: the value plus its statistics."""

    value: Any
    stats: ExecutionStats


class Interpreter:
    """Executes :class:`MalProgram` templates against a catalogue.

    Args:
        catalog: the database catalogue (resolves binds).
        recycler: optional recycler run-time; when None, plans execute
            naively (the paper's baseline).
        clock: time source, injectable for deterministic tests.
    """

    def __init__(
        self,
        catalog: Catalog,
        recycler: Optional["Recycler"] = None,  # noqa: F821
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.catalog = catalog
        self.recycler = recycler
        self.clock = clock

    # ------------------------------------------------------------------
    def run(self, program: MalProgram,
            params: Optional[Dict[str, Any]] = None) -> InvocationResult:
        """Interpret *program* with the given parameter bindings."""
        params = params or {}
        missing = set(program.params) - set(params)
        if missing:
            raise InterpreterError(
                f"{program.name}: missing parameters {sorted(missing)}"
            )
        stack: List[Any] = [None] * program.nvars
        for name, idx in program.params.items():
            stack[idx] = params[name]

        stats = ExecutionStats(template=program.name)
        recycler = self.recycler
        invocation = None
        if recycler is not None:
            invocation = recycler.begin_invocation(program, stats)

        started = self.clock()
        try:
            if (invocation is not None
                    and recycler.serve_frontier(invocation, stack)):
                self._run_served(program, stack, stats, invocation)
            else:
                for pc, instr in enumerate(program.instrs):
                    value = self._step(program, instr, stack, stats,
                                       invocation)
                    stack[instr.result] = value
                    for victim in program.free_after.get(pc, ()):
                        stack[victim] = None
        finally:
            if recycler is not None:
                recycler.end_invocation(invocation)
        stats.wall_time = self.clock() - started
        stats.n_instructions = len(program.instrs)

        result = (
            stack[program.result_var]
            if program.result_var is not None
            else None
        )
        return InvocationResult(result, stats)

    def _run_served(self, program: MalProgram, stack: List[Any],
                    stats: ExecutionStats, invocation) -> None:
        """Run an invocation whose marked instructions the recycler has
        served and booked from the pool: each still enters
        ``recycleEntry``, which returns its pooled value; the unmarked
        ones above the frontier execute.  Parameter-only scalar
        expressions that only the served instructions read are skipped.
        Nothing is freed early: the served values are pooled."""
        cones = program.warm_cones()
        stats.n_marked += len(cones.book)
        stats.n_marked_nonbind += cones.n_nonbind
        recycle_entry = self.recycler.recycle_entry
        for instr, opdef in cones.steps:
            if opdef is None:
                stack[instr.result] = self._step(program, instr, stack,
                                                 stats, None)
            else:
                stack[instr.result] = recycle_entry(invocation, instr,
                                                    opdef, ())

    # ------------------------------------------------------------------
    def _resolve(self, arg, stack):
        if isinstance(arg, VarRef):
            return stack[arg.index]
        return arg.value

    def _step(self, program: MalProgram, instr: Instr, stack: List[Any],
              stats: ExecutionStats, invocation) -> Any:
        opdef = get_op(instr.opname)
        args = tuple(self._resolve(a, stack) for a in instr.args)

        if not instr.recycle or invocation is None:
            return opdef.fn(self, *args)

        # Algorithm 1: recycleEntry -> execute -> recycleExit.
        stats.n_marked += 1
        if opdef.kind != "bind":
            stats.n_marked_nonbind += 1
        reused = self.recycler.recycle_entry(invocation, instr, opdef, args)
        if reused is not None:
            return reused

        t0 = self.clock()
        value = opdef.fn(self, *args)
        elapsed = self.clock() - t0
        stats.potential_time += elapsed
        self.recycler.recycle_exit(invocation, instr, opdef, args, value,
                                   elapsed)
        return value
