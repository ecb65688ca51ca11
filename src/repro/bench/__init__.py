"""Benchmark harness: the workload runner and paper-style table/series
rendering.

Used by the ``benchmarks/`` suite, which regenerates every table and figure
of the paper's evaluation (§7 TPC-H, §8 SkyServer).  See
``docs/BENCHMARKS.md`` for the per-experiment index and the measured
results.
"""

from repro.bench.harness import (
    QueryRecord,
    RunResult,
    fresh_tpch_db,
    profile_template,
    reused_entries,
    reused_memory,
    run_workload,
)
from repro.bench.reporting import render_series, render_table

__all__ = [
    "QueryRecord",
    "RunResult",
    "run_workload",
    "fresh_tpch_db",
    "profile_template",
    "reused_entries",
    "reused_memory",
    "render_series",
    "render_table",
]
