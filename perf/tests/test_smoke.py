"""A few-second miniature of all five workloads, both passes.

Checks the shape of the results (every named metric present, names well
formed, no failures) and that the design works: each workload bypasses
the layers its row in the README says it bypasses.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from perf import metrics, run
from perf.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SECONDS = 0.6
SEED = 5
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def results():
    return {
        name: {trace: run.run_workload(name, SEED, SECONDS, trace,
                                       sizes_name="smoke", setup_repeats=1)
               for trace in (False, True)}
        for name in WORKLOADS
    }


def value(results, workload, metric):
    return results[workload][True]["metrics"][metric]["value"]


def test_every_named_metric_is_reported_with_its_unit(results):
    for name in WORKLOADS:
        for trace, table in ((False, metrics.END_TO_END),
                             (True, metrics.PER_LAYER)):
            got = results[name][trace]["metrics"]
            assert list(got) == [m.name for m in table]
            for m in table:
                assert NAME_RE.match(m.name), m.name
                assert got[m.name]["unit"] == m.unit
                assert math.isfinite(got[m.name]["value"]), (name, m.name)
    for m in metrics.END_TO_END:       # end-to-end metrics are never 0
        for name in WORKLOADS:
            assert results[name][False]["metrics"][m.name]["value"] > 0


def test_no_statement_fails_and_every_sample_matches_the_shadow(results):
    for name in WORKLOADS:
        for trace in (False, True):
            r = results[name][trace]
            assert r["correct"] and r["failed"] == 0, (name, trace)
            assert r["attempted"] >= 25, (name, trace)


def _group(prefixes):
    return [m.name for m in metrics.PER_LAYER
            if m.name.startswith(prefixes)]


def test_naive_bypasses_recycler_pool_spill_and_network(results):
    for metric in _group(("recycler.", "pool.", "capacity.", "spill.",
                          "net.", "invalidation.", "refresh.", "dml.")):
        assert value(results, "tpch_naive", metric) == 0, metric
    assert value(results, "tpch_naive", "interp.marked_count") == 0
    assert value(results, "tpch_naive", "ops.total_s") > 0


def test_capacity_and_spill_work_only_when_the_pool_is_bounded(results):
    for name in WORKLOADS:
        moved = {m: value(results, name, m)
                 for m in _group(("capacity.", "spill."))}
        if name == "tpch_bounded":
            assert moved["capacity.evictions"] > 0
            assert moved["capacity.sweep_s"] > 0
        else:
            assert not any(moved.values()), (name, moved)


def test_writes_only_on_volatile(results):
    for name in WORKLOADS:
        moved = {m: value(results, name, m)
                 for m in _group(("invalidation.", "refresh.", "dml.",
                                  "catalog.", "locks.dml_"))}
        if name == "tpch_volatile":
            assert moved["refresh.blocks"] > 0
            assert moved["invalidation.entries"] > 0
            assert moved["dml.block_p50_s"] > 0
            assert moved["catalog.dml_s"] > 0
        else:
            assert not any(moved.values()), (name, moved)


def test_network_layers_only_on_net(results):
    for name in WORKLOADS:
        moved = {m: value(results, name, m) for m in _group(("net.",))}
        if name == "tpch_net":
            assert moved["net.frames_per_query"] == 2
            assert moved["net.encode_s"] > 0 and moved["net.decode_s"] > 0
            assert moved["net.tax_s"] > 0
            # Prepared statements: the server never re-prepares.
            assert value(results, name, "db.prepare_s") == 0
        else:
            assert not any(moved.values()), (name, moved)


def test_recycling_workloads_hit_and_plans_stay_warm(results):
    for name in WORKLOADS:
        assert value(results, name, "sql.compile_count") == 0, name
        assert value(results, name, "db.compile_hit_ratio") == 1.0, name
        if name != "tpch_naive":
            assert value(results, name, "recycler.exact_hits") > 0, name
            assert 0 < value(results, name, "recycler.hit_ratio") <= 1


def test_self_times_cover_the_traced_end_to_end_time(results):
    for name in WORKLOADS:
        assert value(results, name, "trace.coverage_frac") >= 0.9, name
        assert value(results, name, "trace.overhead_frac") >= 0, name


def test_exact_counters_repeat_on_two_replays():
    exact = run.replay_check(SEED, "smoke", n_statements=60)
    assert set(exact) == set(metrics.EXACT_WORKLOADS)
    for counters in exact.values():
        assert set(counters) == set(metrics.EXACT_COUNTERS)
    assert exact["tpch_keepall"]["recycler.exact_hits"] > 0
    assert exact["tpch_naive"]["recycler.exact_hits"] == 0
    assert exact["tpch_volatile"]["invalidation.entries"] > 0


# ----------------------------------------------------------------------
# The contract with the benchmark driver
# ----------------------------------------------------------------------
def test_benchmark_json_is_what_the_metric_tables_say():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        committed = json.load(f)
    assert committed == metrics.benchmark_json(
        WORKLOADS, committed["command"], committed["paths"],
        committed["run_seconds"])
    assert committed["command"] == ["python3", "perf/run.py"]
    assert committed["paths"] == ["perf"]
    names = ([w["name"] for w in committed["workloads"]]
             + [m["name"] for m in committed["end_to_end"]]
             + [m["name"] for m in committed["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in committed["workloads"])
    assert 2 <= len(committed["workloads"]) <= 8
    assert len(committed["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    assert "setup_s" in [m["name"] for m in committed["end_to_end"]]


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perf/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_command_line_prints_one_result_object_last():
    proc = _cli(ROOT, "--workload", "tpch_naive", "--seed", "3",
                "--seconds", "0.3", "--trace", "0", "--sizes", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in metrics.END_TO_END]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/ there is no
    engine to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perf"), tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _cli(tmp_path, "--workload", "tpch_naive", "--seed", "3",
                "--seconds", "0.3", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
