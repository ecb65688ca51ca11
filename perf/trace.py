"""Per-layer timing from outside: span stacks and run-time wrappers.

The traced pass installs timing wrappers around the layers' callables
(no edit to ``src/``) and removes them on exit.  Each wrapped call is a
span on a per-thread stack; a span's *self* time is its duration minus
the part covered by its child spans, so self times add up to the
traced end-to-end time without double counting.

Spans are aggregated per thread as ``name -> [calls, total, self]``;
the first ``RAW_SPAN_STATEMENTS`` statements of each thread also keep
their raw spans (name, start, end, depth, statement id) in memory, to
be written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Statements (per thread) whose raw spans are kept for ``perf/out/``.
RAW_SPAN_STATEMENTS = 200

_clock = time.perf_counter


class _ThreadState:
    __slots__ = ("stack", "totals", "counts", "raw", "statement", "client")

    def __init__(self):
        self.stack: List[List[float]] = []      # open spans' child time
        self.totals: Dict[str, List[float]] = {}
        #: Plain counters the wrappers feed (bytes, rows, frames).
        self.counts: Dict[str, float] = {}
        self.raw: List[Tuple[str, float, float, int, int]] = []
        self.statement = -1                     # id of the open statement
        self.client = False                     # a load-generator thread?


class Tracer:
    """Span aggregates of one traced run, across all its threads."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._undo: List[Callable[[], None]] = []

    # -- span stack ----------------------------------------------------
    def _state(self) -> _ThreadState:
        """The calling thread's state, created on its first span."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def mark_client_thread(self) -> None:
        """Declare the calling thread a load-generator (client) thread:
        its spans lie on the closed loop's critical path."""
        self._state().client = True

    def begin_statement(self, statement_id: int) -> None:
        self._state().statement = statement_id

    def wrap(self, name: str, fn: Callable,
             none_name: Optional[str] = None,
             count: Optional[Callable[[Any], Dict[str, float]]] = None
             ) -> Callable:
        """*fn* timed as a span called *name*.

        *none_name*, when given, names the span instead when the call
        returns None (a recycler lookup is a hit or a miss only once it
        has returned); *count* turns the result into counter increments.
        """
        local, new_state, clock = self._local, self._state, _clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The hot path of the traced pass: everything inline.
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            frame = [0.0]                   # time covered by child spans
            stack.append(frame)
            span = name
            started = clock()
            try:
                result = fn(*args, **kwargs)
                if result is None and none_name is not None:
                    span = none_name
                if count is not None:
                    counts = state.counts
                    for key, inc in count(result).items():
                        counts[key] = counts.get(key, 0) + inc
                return result
            finally:
                ended = clock()
                duration = ended - started
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                try:
                    agg = state.totals[span]
                except KeyError:
                    agg = state.totals[span] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if 0 <= state.statement < RAW_SPAN_STATEMENTS:
                    state.raw.append((span, started, ended, len(stack),
                                      state.statement))

        return traced

    # -- patching ------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str, **wrap_kwargs) -> None:
        """Replace ``owner.attr`` with its traced form until
        :meth:`uninstall`."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, **wrap_kwargs))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_item(self, mapping: Dict, key: Any, replacement: Any) -> None:
        original = mapping[key]
        mapping[key] = replacement
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- read-out ------------------------------------------------------
    def totals(self, client: Optional[bool] = None
               ) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total_s, self_s)`` merged over threads;
        *client* restricts to load-generator (True) or engine-side
        (False) threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            if client is not None and state.client != client:
                continue
            for name, (calls, total, self_s) in state.totals.items():
                agg = merged.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
        return {k: (int(v[0]), v[1], v[2]) for k, v in merged.items()}

    def counts(self) -> Dict[str, float]:
        """The wrappers' plain counters, merged over threads."""
        merged: Dict[str, float] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for key, value in state.counts.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def raw_spans(self) -> List[Dict[str, Any]]:
        with self._lock:
            threads = list(self._threads)
        out = []
        for tid, state in enumerate(threads):
            for name, start, end, depth, statement in state.raw:
                out.append({"thread": tid, "statement": statement,
                            "name": name, "start": start, "end": end,
                            "depth": depth})
        return out


def span_cost(n: int = 20_000) -> float:
    """Seconds one span adds to a call — the basis of
    ``trace.overhead_frac``.  Measured on a method-shaped no-op (four
    positional arguments, like an operator or a recycler hook) nested in
    an open span, in a hot loop: a floor for the cost inside a real run,
    where the wrapper competes with the engine for the caches.
    """
    def noop(a, b, c, d):
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop, none_name="noop.none")

    def loop(fn):
        t0 = _clock()
        for _ in range(n):
            fn(1, 2, 3, 4)
        return _clock() - t0

    costs = []
    for _ in range(3):
        bare = loop(noop)
        costs.append((tracer.wrap("outer", loop)(traced) - bare) / n)
    return max(0.0, min(costs))


# ----------------------------------------------------------------------
# The layer map: which callables are wrapped, under which span name
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of ``repro`` (span name = layer)."""
    from repro import db as db_mod
    from repro import dbapi
    from repro.core.recycler import Recycler
    from repro.mal import operators
    from repro.mal.interpreter import Interpreter
    from repro.mal.operators.results import ResultSet
    from repro.net import client as net_client
    from repro.net import protocol
    from repro.server.locks import ReadWriteLock
    from repro.server.session import Session
    from repro.sql import planner
    from repro.storage.catalog import Catalog
    from repro.storage.spill import SpillStore
    from repro.workloads.tpch.refresh import RefreshStream

    # Front end: cursor -> session -> prepare/bind/compile -> run.
    for attr in ("execute", "fetchall"):
        tracer.patch(dbapi.Cursor, attr, "dbapi.cursor")
    for attr in ("execute", "run_statement"):
        tracer.patch(Session, attr, "session")
    tracer.patch(db_mod.Database, "prepare", "db.prepare")
    tracer.patch(db_mod.PreparedStatement, "bind", "db.bind")
    tracer.patch(db_mod.PreparedStatement, "run", "db.run")
    tracer.patch(planner, "compile_tokens", "sql.compile")
    # Table and database locks: time to *acquire*, i.e. waiting.
    tracer.patch(ReadWriteLock, "acquire_read", "locks.query_wait")
    tracer.patch(ReadWriteLock, "acquire_write", "locks.dml_wait")
    # Interpreter and operator kernels (by OpDef.kind).
    tracer.patch(Interpreter, "run", "interp", count=lambda result: {
        "interp.instr_count": result.stats.n_instructions,
        "interp.marked_count": result.stats.n_marked})
    for opname, opdef in list(operators.OPERATORS.items()):
        traced = tracer.wrap(f"ops.{opdef.kind}", opdef.fn)
        tracer.patch_item(operators.OPERATORS, opname,
                          dataclasses.replace(opdef, fn=traced))
    # Recycler hooks; a lookup is a hit or a miss once it has returned.
    tracer.patch(Recycler, "recycle_entry", "recycler.entry_hit",
                 none_name="recycler.entry_miss")
    tracer.patch(Recycler, "recycle_exit", "recycler.exit")
    # Capacity management and the spill tier.
    tracer.patch(Recycler, "_ensure_capacity_locked", "capacity.sweep")
    tracer.patch(SpillStore, "write", "spill.write",
                 count=lambda written: {"spill.write_bytes": written})
    tracer.patch(SpillStore, "load", "spill.load")
    # Writes: the refresh generator, the catalogue, pool synchronisation.
    tracer.patch(RefreshStream, "update_block", "refresh",
                 count=lambda block: {
                     "refresh.rows": (block["inserted_lines"]
                                      + block["deleted_lines"])})
    for attr in ("insert", "delete_oids"):
        tracer.patch(db_mod.Database, attr, "catalog.dml")
        tracer.patch(Catalog, attr, "catalog.dml")
    tracer.patch(db_mod, "synchronize", "invalidation.sync",
                 count=lambda removed: {"invalidation.entries": removed})
    # Row materialisation.
    tracer.patch(ResultSet, "rows", "results.rows",
                 count=lambda rows: {"results.rows_returned": len(rows)})
    # Network: both codec directions, the client cursor, and the
    # client's blocking socket reads (= waiting for the server).
    tracer.patch(protocol, "encode_frame", "net.encode",
                 count=lambda frame: {"net.frames": 1,
                                      "net.bytes": len(frame)})
    tracer.patch(protocol, "decode_payload", "net.decode")
    tracer.patch(protocol, "_recv_exactly", "net.wait")
    for attr in ("execute_named", "fetchall"):
        tracer.patch(net_client.NetCursor, attr, "net.client")


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Install the wrappers for the duration of the block."""
    tracer = Tracer()
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.uninstall()
