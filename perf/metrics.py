"""Metric names, units and predictions — and how each is computed.

``BENCHMARK.json`` lists these names with exactly ``name``/``unit``/
``better`` (and ``bound`` for the end-to-end ones); the columns its
format has no room for live here and in ``perf/README.md``: the layer a
metric belongs to, which end-to-end metric it should move on which
workload, and which counters must repeat exactly.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, NamedTuple, Sequence

from perf.driver import RunLog
from perf.workloads import STATEMENT_NAMES, Statement


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float        # share of the parent's median it may worsen by
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str          # the repo module(s) the metric belongs to
    moves: str          # end-to-end metric -> workload it should move


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "data generation + load + §7 preparation (+ server start, "
             "connect, PREPARE for tpch_net); median of the run's set-ups"),
    EndToEnd("queries_per_s", "1/s", "higher", 0.25,
             "verified-correct statements completed / timed-phase wall"),
    EndToEnd("query_s_gmean", "s", "lower", 0.25,
             "geometric mean of execute+fetchall latency, all statements "
             "pooled (the pooled median sits in a gap between statement "
             "classes and jumps between seeds; see README)"),
    EndToEnd("query_s_p95", "s", "lower", 0.25,
             "95th percentile of the same latencies: the highest "
             "percentile with ten or more samples beyond it on every "
             "workload (tpch_bounded completes ~750 statements)"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10,
             "peak RSS of the engine process (ru_maxrss; VmHWM of the "
             "server for tpch_net)"),
]

_FRONT = "db / sql / dbapi"
_OPS = "mal.operators"
_REC = "core.recycler"
_CAP = "core.pool / core.eviction / storage.spill"
_DML = "storage.catalog / storage.deltas / core.invalidation"
_NET = "net.protocol / net.server / net.client"

#: Operator kinds with a metric of their own; the rest is ``ops.other_s``.
OP_KINDS = ("bind", "select", "join", "view", "group", "aggr", "calc",
            "scalar", "sort", "result")

PER_LAYER: List[PerLayer] = [
    # -- front end ------------------------------------------------------
    PerLayer("dbapi.cursor_self_s", "s", "lower", _FRONT,
             "query_s_p50 -> tpch_keepall"),
    PerLayer("session.self_s", "s", "lower", _FRONT,
             "query_s_p50 -> tpch_keepall"),
    PerLayer("db.prepare_s", "s", "lower", _FRONT,
             "query_s_p50 -> tpch_keepall"),
    PerLayer("db.bind_s", "s", "lower", _FRONT,
             "query_s_p50 -> tpch_keepall"),
    PerLayer("db.run_s", "s", "lower", _FRONT,
             "query_s_p50 -> tpch_keepall"),
    PerLayer("sql.compile_s", "s", "lower", _FRONT,
             "setup_s only (plans are warm)"),
    PerLayer("sql.compile_count", "count", "lower", _FRONT,
             "setup_s only (plans are warm)"),
    PerLayer("db.compile_hit_ratio", "ratio", "higher", _FRONT,
             "query_s_p50 -> all (1.0 once plans are warm)"),
    # -- locks ----------------------------------------------------------
    PerLayer("locks.query_wait_s", "s", "lower", "server.locks",
             "query_s_p99 -> tpch_net, tpch_volatile"),
    PerLayer("locks.dml_wait_s", "s", "lower", "server.locks",
             "dml.block_p50_s -> tpch_volatile"),
    # -- interpreter ----------------------------------------------------
    PerLayer("interp.run_s", "s", "lower", "mal.interpreter",
             "queries_per_s -> tpch_keepall, tpch_net"),
    PerLayer("interp.self_s", "s", "lower", "mal.interpreter",
             "query_s_p50 -> tpch_keepall, tpch_net"),
    PerLayer("interp.instr_count", "count", "lower", "mal.interpreter",
             "queries_per_s -> tpch_naive"),
    PerLayer("interp.marked_count", "count", "lower", "mal.interpreter",
             "queries_per_s -> tpch_keepall"),
    # -- operators ------------------------------------------------------
    *[PerLayer(f"ops.{kind}_s", "s", "lower", _OPS,
               "queries_per_s -> tpch_naive") for kind in OP_KINDS],
    PerLayer("ops.other_s", "s", "lower", _OPS,
             "queries_per_s -> tpch_naive"),
    PerLayer("ops.total_s", "s", "lower", _OPS,
             "queries_per_s -> tpch_naive (about all its time)"),
    PerLayer("ops.calls", "count", "lower", _OPS,
             "queries_per_s -> tpch_naive"),
    # -- recycler -------------------------------------------------------
    PerLayer("recycler.entry_hit_s", "s", "lower", _REC,
             "query_s_p50 -> tpch_keepall"),
    PerLayer("recycler.entry_miss_s", "s", "lower", _REC,
             "queries_per_s -> tpch_volatile (miss-heavy)"),
    PerLayer("recycler.exit_s", "s", "lower", _REC,
             "queries_per_s -> tpch_volatile (miss-heavy)"),
    PerLayer("recycler.miss_tax_s", "s", "lower", _REC,
             "entry_miss_s + exit_s, the paper's overhead on a miss: "
             "queries_per_s -> tpch_volatile"),
    PerLayer("recycler.saved_s", "s", "higher", _REC,
             "the paper's saving on a hit: queries_per_s -> tpch_keepall"),
    PerLayer("recycler.subsume_s", "s", "lower", _REC,
             "query_s_p50 -> tpch_keepall"),
    PerLayer("recycler.entry_calls", "count", "lower", _REC,
             "query_s_p50 -> tpch_keepall"),
    PerLayer("recycler.hit_ratio", "ratio", "higher", _REC,
             "query_s_p50 -> tpch_keepall, tpch_volatile"),
    PerLayer("recycler.exact_hits", "count", "higher", _REC,
             "query_s_p50 -> tpch_keepall"),
    PerLayer("recycler.subsumed_hits", "count", "higher", _REC,
             "query_s_p50 -> tpch_keepall"),
    PerLayer("recycler.admissions", "count", "lower", _REC,
             "peak_rss_mb -> tpch_keepall"),
    # -- pool capacity and the spill tier -------------------------------
    PerLayer("pool.bytes_end", "B", "lower", _CAP,
             "peak_rss_mb -> tpch_keepall"),
    PerLayer("pool.entries_end", "count", "lower", _CAP,
             "peak_rss_mb -> tpch_keepall"),
    PerLayer("pool.spilled_bytes_end", "B", "lower", _CAP,
             "queries_per_s -> tpch_bounded"),
    PerLayer("capacity.sweep_s", "s", "lower", _CAP,
             "queries_per_s, query_s_p99 -> tpch_bounded"),
    PerLayer("capacity.evictions", "count", "lower", _CAP,
             "queries_per_s -> tpch_bounded"),
    PerLayer("capacity.demotions", "count", "lower", _CAP,
             "queries_per_s -> tpch_bounded"),
    PerLayer("capacity.promotions", "count", "higher", _CAP,
             "queries_per_s -> tpch_bounded"),
    PerLayer("capacity.spill_evictions", "count", "lower", _CAP,
             "queries_per_s -> tpch_bounded"),
    PerLayer("spill.write_s", "s", "lower", _CAP,
             "query_s_p99 -> tpch_bounded"),
    PerLayer("spill.write_bytes", "B", "lower", _CAP,
             "query_s_p99 -> tpch_bounded"),
    PerLayer("spill.load_s", "s", "lower", _CAP,
             "queries_per_s -> tpch_bounded"),
    PerLayer("spill.load_calls", "count", "lower", _CAP,
             "queries_per_s -> tpch_bounded"),
    # -- writes ---------------------------------------------------------
    PerLayer("dml.block_p50_s", "s", "lower", _DML,
             "median update_block() latency: queries_per_s -> "
             "tpch_volatile"),
    PerLayer("catalog.dml_s", "s", "lower", _DML,
             "dml.block_p50_s -> tpch_volatile"),
    PerLayer("invalidation.sync_s", "s", "lower", _DML,
             "dml.block_p50_s -> tpch_volatile"),
    PerLayer("invalidation.entries", "count", "lower", _DML,
             "fewer => recycler.hit_ratio up => query_s_p50 down on "
             "tpch_volatile"),
    PerLayer("refresh.gen_s", "s", "lower", "workloads.tpch.refresh",
             "dml.block_p50_s -> tpch_volatile (load generator's share)"),
    PerLayer("refresh.blocks", "count", "higher", "workloads.tpch.refresh",
             "none (input size)"),
    PerLayer("refresh.rows", "count", "higher", "workloads.tpch.refresh",
             "none (input size)"),
    # -- row materialisation --------------------------------------------
    PerLayer("results.rows_s", "s", "lower", "mal.operators.results",
             "query_s_p50 of lines_by_month/q10 -> every workload"),
    PerLayer("results.rows_returned", "count", "higher",
             "mal.operators.results", "none (output size)"),
    # -- network --------------------------------------------------------
    PerLayer("net.tax_s", "s", "lower", _NET,
             "queries_per_s, query_s_p50, query_s_p99 -> tpch_net"),
    PerLayer("net.server_wall_s", "s", "lower", _NET,
             "query_s_p50 -> tpch_net"),
    PerLayer("net.encode_s", "s", "lower", _NET,
             "query_s_p50 -> tpch_net"),
    PerLayer("net.decode_s", "s", "lower", _NET,
             "query_s_p50 -> tpch_net"),
    PerLayer("net.client_s", "s", "lower", _NET,
             "query_s_p50 -> tpch_net"),
    PerLayer("net.wait_s", "s", "lower", _NET,
             "query_s_p50 -> tpch_net"),
    PerLayer("net.other_s", "s", "lower", _NET,
             "query_s_p99 -> tpch_net"),
    PerLayer("net.bytes_per_query", "B", "lower", _NET,
             "query_s_p50 -> tpch_net"),
    PerLayer("net.frames_per_query", "count", "lower", _NET,
             "query_s_p50 -> tpch_net"),
    # -- process --------------------------------------------------------
    PerLayer("proc.cpu_s", "s", "lower", "process",
             "queries_per_s -> tpch_net (server is GIL-bound)"),
    PerLayer("proc.cpu_util", "ratio", "lower", "process",
             "queries_per_s -> tpch_net"),
    # -- per statement --------------------------------------------------
    PerLayer("query.p50_s", "s", "lower", "per statement",
             "pooled median latency (bimodal: reported, not bounded)"),
    PerLayer("query.p99_s", "s", "lower", "per statement",
             "pooled 99th percentile (cold misses: reported, not bounded)"),
    *[PerLayer(f"stmt.{name}.p50_s", "s", "lower", "per statement",
               "localises a move in query_s_p50/p99 to a plan shape")
      for name in STATEMENT_NAMES],
    # -- the tracer itself ----------------------------------------------
    PerLayer("trace.queries_per_s", "1/s", "higher", "perf.trace",
             "throughput under tracing; against the untraced "
             "queries_per_s it gives the measured tracing overhead"),
    PerLayer("trace.overhead_frac", "ratio", "lower", "perf.trace",
             "none (should not move)"),
    PerLayer("trace.coverage_frac", "ratio", "higher", "perf.trace",
             "none (below 0.9 a layer is missing a wrapper)"),
]

#: Counters that must repeat exactly on the single-thread workloads
#: (``tpch_naive``, ``tpch_keepall``, ``tpch_volatile``) for a fixed
#: seed and statement prefix; on ``tpch_bounded`` and ``tpch_net`` they
#: depend on timing and are reported with their spread only.
EXACT_COUNTERS = (
    "recycler.exact_hits", "recycler.subsumed_hits", "recycler.admissions",
    "invalidation.entries", "interp.instr_count", "sql.compile_count",
    "results.rows_returned",
)
EXACT_WORKLOADS = ("tpch_naive", "tpch_keepall", "tpch_volatile")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *values* (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def relative_iqr(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the spread the driver judges steadiness by."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(run: RunLog, setup_seconds: Sequence[float],
               peak_rss_mb: float, wrong: int) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one untraced run; *wrong* is how many
    completed statements the shadow check refuted."""
    latencies = [lat for c in run.clients for _i, lat, _w in c.statements]
    values = {
        "setup_s": statistics.median(setup_seconds),
        "queries_per_s": (len(latencies) - wrong) / run.wall_s,
        "query_s_gmean": math.exp(
            sum(math.log(lat) for lat in latencies) / len(latencies)),
        "query_s_p95": percentile(latencies, 0.95),
        "peak_rss_mb": peak_rss_mb,
    }
    return {m.name: metric(values[m.name], m.unit) for m in END_TO_END}


class Snapshot(NamedTuple):
    """Cumulative engine counters, read before and after the timed phase
    (the warm-up has already moved them)."""

    totals: Dict[str, float]
    compile_hits: int
    compile_misses: int

    @classmethod
    def of(cls, db) -> "Snapshot":
        totals = dict(vars(db.recycler.totals)) if db.recycler else {}
        compile_stats = db.compile_cache_stats
        return cls(totals, compile_stats.hits, compile_stats.misses)


def per_layer(run: RunLog, stream: Sequence[Statement], tracer, db,
              before: Snapshot, span_cost_s: float
              ) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of one traced run.

    ``*_s`` metrics are mean self-seconds per completed statement; counts
    are per run.  A layer the workload bypasses reports 0.
    """
    done = [s for c in run.clients for s in c.statements]
    n = max(1, len(done))
    spans = tracer.totals()
    client_spans = tracer.totals(client=True)
    counts = tracer.counts()
    after = Snapshot.of(db)

    no_span = (0, 0.0, 0.0)

    def calls(name: str) -> int:
        return spans.get(name, no_span)[0]

    def total_s(name: str) -> float:
        return spans.get(name, no_span)[1] / n

    def self_s(name: str) -> float:
        return spans.get(name, no_span)[2] / n

    def delta(counter: str) -> float:
        return after.totals.get(counter, 0) - before.totals.get(counter, 0)

    v: Dict[str, float] = {}
    # Front end.
    v["dbapi.cursor_self_s"] = self_s("dbapi.cursor")
    v["session.self_s"] = self_s("session")
    v["db.prepare_s"] = self_s("db.prepare")
    v["db.bind_s"] = self_s("db.bind")
    v["db.run_s"] = self_s("db.run")
    v["sql.compile_s"] = self_s("sql.compile")
    v["sql.compile_count"] = calls("sql.compile")
    hits = after.compile_hits - before.compile_hits
    misses = after.compile_misses - before.compile_misses
    binds = hits + misses
    v["db.compile_hit_ratio"] = hits / binds if binds else 0.0
    # Locks.
    v["locks.query_wait_s"] = self_s("locks.query_wait")
    v["locks.dml_wait_s"] = self_s("locks.dml_wait")
    # Interpreter.
    v["interp.run_s"] = total_s("interp")
    v["interp.self_s"] = self_s("interp")
    v["interp.instr_count"] = counts.get("interp.instr_count", 0)
    v["interp.marked_count"] = counts.get("interp.marked_count", 0)
    # Operators by kind.
    op_spans = {k: s for k, s in spans.items() if k.startswith("ops.")}
    for kind in OP_KINDS:
        v[f"ops.{kind}_s"] = self_s(f"ops.{kind}")
    v["ops.total_s"] = sum(s[2] for s in op_spans.values()) / n
    v["ops.other_s"] = sum(
        s[2] for k, s in op_spans.items()
        if k[len("ops."):] not in OP_KINDS) / n
    v["ops.calls"] = sum(s[0] for s in op_spans.values())
    # Recycler.
    v["recycler.entry_hit_s"] = self_s("recycler.entry_hit")
    v["recycler.entry_miss_s"] = self_s("recycler.entry_miss")
    v["recycler.exit_s"] = self_s("recycler.exit")
    v["recycler.miss_tax_s"] = (v["recycler.entry_miss_s"]
                                + v["recycler.exit_s"])
    v["recycler.saved_s"] = delta("saved_time") / n
    v["recycler.subsume_s"] = delta("subsumption_algo_time") / n
    entry_calls = calls("recycler.entry_hit") + calls("recycler.entry_miss")
    v["recycler.entry_calls"] = entry_calls
    v["recycler.exact_hits"] = delta("exact_hits")
    v["recycler.subsumed_hits"] = delta("subsumed_hits")
    v["recycler.hit_ratio"] = (
        (v["recycler.exact_hits"] + v["recycler.subsumed_hits"])
        / entry_calls if entry_calls else 0.0)
    v["recycler.admissions"] = delta("admissions")
    # Pool capacity and spill tier.
    v["pool.bytes_end"] = db.pool_bytes
    v["pool.entries_end"] = db.pool_entries
    v["pool.spilled_bytes_end"] = db.pool_spilled_bytes
    v["capacity.sweep_s"] = self_s("capacity.sweep")
    for counter in ("evictions", "demotions", "promotions",
                    "spill_evictions"):
        v[f"capacity.{counter}"] = delta(counter)
    v["spill.write_s"] = self_s("spill.write")
    v["spill.write_bytes"] = counts.get("spill.write_bytes", 0)
    v["spill.load_s"] = self_s("spill.load")
    v["spill.load_calls"] = calls("spill.load")
    # Writes.
    blocks = [lat for c in run.clients for _i, lat in c.dml]
    v["dml.block_p50_s"] = percentile(blocks, 0.5) if blocks else 0.0
    v["catalog.dml_s"] = self_s("catalog.dml")
    v["invalidation.sync_s"] = self_s("invalidation.sync")
    v["invalidation.entries"] = counts.get("invalidation.entries", 0)
    v["refresh.gen_s"] = self_s("refresh")
    v["refresh.blocks"] = calls("refresh")
    v["refresh.rows"] = counts.get("refresh.rows", 0)
    # Row materialisation.
    v["results.rows_s"] = self_s("results.rows")
    v["results.rows_returned"] = counts.get("results.rows_returned", 0)
    # Network (all 0 on the embedded workloads).
    walls = [w for _i, _lat, w in done if w is not None]
    if walls:
        v["net.tax_s"] = sum(lat - w for _i, lat, w in done) / n
        v["net.server_wall_s"] = sum(walls) / n
    else:
        v["net.tax_s"] = v["net.server_wall_s"] = 0.0
    v["net.encode_s"] = self_s("net.encode")
    v["net.decode_s"] = self_s("net.decode")
    v["net.client_s"] = self_s("net.client")
    v["net.wait_s"] = self_s("net.wait")
    # What is left of the tax: sockets, asyncio, executor hand-off,
    # admission, and waiting for the GIL the other session holds.
    v["net.other_s"] = (v["net.tax_s"] - v["net.encode_s"]
                        - v["net.decode_s"] - v["net.client_s"]
                        - (v["results.rows_s"] if walls else 0.0))
    v["net.bytes_per_query"] = counts.get("net.bytes", 0) / n
    v["net.frames_per_query"] = counts.get("net.frames", 0) / n
    # Process.
    v["proc.cpu_s"] = run.cpu_s
    v["proc.cpu_util"] = run.cpu_s / run.wall_s
    # Per statement.
    latencies = [lat for _i, lat, _w in done]
    v["query.p50_s"] = percentile(latencies, 0.50) if done else 0.0
    v["query.p99_s"] = percentile(latencies, 0.99) if done else 0.0
    by_name: Dict[str, List[float]] = {name: [] for name in STATEMENT_NAMES}
    for i, lat, _w in done:
        by_name[stream[i].name].append(lat)
    for name, lats in by_name.items():
        v[f"stmt.{name}.p50_s"] = percentile(lats, 0.5) if lats else 0.0
    # The tracer itself.  Root spans on the load generator's threads:
    # "stmt" around each statement (its self time is what no layer's
    # wrapper covered) and "refresh" around each update block.
    v["trace.queries_per_s"] = len(done) / run.wall_s
    n_spans = sum(s[0] for s in spans.values())
    v["trace.overhead_frac"] = n_spans * span_cost_s / run.wall_s
    _calls, stmt_total, stmt_self = client_spans.get("stmt", no_span)
    end_to_end_s = stmt_total + client_spans.get("refresh", no_span)[1]
    v["trace.coverage_frac"] = (
        1.0 - stmt_self / end_to_end_s if end_to_end_s else 0.0)

    return {m.name: metric(v[m.name], m.unit) for m in PER_LAYER}


def benchmark_json(workloads: Dict[str, Any], command: List[str],
                   paths: List[str], run_seconds: int) -> Dict[str, Any]:
    """The contents ``BENCHMARK.json`` must have (a test keeps the
    committed file equal to this)."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
