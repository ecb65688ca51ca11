#!/usr/bin/env python3
"""The benchmark of record: one statement stream, five configurations.

One run — what the benchmark driver calls, one workload per process::

    python3 perf/run.py --workload tpch_net --seed 77 --seconds 10 --trace 0

prints human-readable lines, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The whole suite — every workload, untraced then traced, each run in a
fresh child process, plus the exact-counter replay check::

    python3 perf/run.py --seed 77            # or --seeds 1 2 3 ...

prints every metric by name with its unit, the derived ratios, writes a
result file for ``perf/compare.py``, and exits non-zero if any statement
failed or any answer differed from the naive shadow.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
# Run as a script, sys.path[0] is perf/ itself, whose trace.py would
# shadow the standard library's: import everything as ``perf.<module>``.
if sys.path and os.path.abspath(sys.path[0]) == PERF_DIR:
    del sys.path[0]
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

#: Engine set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Statements replayed twice by the exact-counter determinism check.
REPLAY_STATEMENTS = 200
DEFAULT_SECONDS = 10.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes_name: str = "full",
                 setup_repeats: int = SETUP_REPEATS,
                 spans_out: str = None, n_statements: int = None) -> dict:
    """One measured run of one workload; returns the result object.

    *n_statements* cuts the stream to a fixed prefix (the replay check
    plays the same prefix twice, with ``seconds`` infinite).
    """
    from perf import metrics, verify
    from perf.driver import open_engine, run_timed
    from perf.trace import span_cost, tracing
    from perf.workloads import (
        SIZES,
        STREAM_RATE,
        WORKLOADS,
        make_stream,
        sky_spec_ids,
    )

    workload, sizes = WORKLOADS[name], SIZES[sizes_name]
    if n_statements is None:
        n_statements = max(12, int(STREAM_RATE * seconds))
    stream = make_stream(seed, n_statements, sky_spec_ids(sizes),
                         sizes.sf)[:n_statements]

    # Set up several times and report the median: one set-up is too
    # short to time steadily.  The last engine is the one measured.
    setup_seconds, engine = [], None
    for _ in range(1 if trace else setup_repeats):
        if engine is not None:
            # Free the previous engine first, so that peak RSS is the
            # measured engine's and not two engines side by side.
            engine.close()
            engine = None
            gc.collect()
        t0 = time.perf_counter()
        engine = open_engine(workload, seed, sizes, in_process=trace)
        setup_seconds.append(time.perf_counter() - t0)

    try:
        if trace:
            cost = span_cost()
            before = metrics.Snapshot.of(engine.db)
            with tracing() as tracer:
                run = run_timed(engine, workload, stream, seed, seconds,
                                tracer)
            measured = metrics.per_layer(run, stream, tracer, engine.db,
                                         before, cost)
            if spans_out:
                with open(spans_out, "w") as f:
                    json.dump(tracer.raw_spans(), f)
        else:
            run = run_timed(engine, workload, stream, seed, seconds)
            peak_rss_mb = engine.peak_rss_mb()
    finally:
        engine.close()

    errors = [e for c in run.clients for e in c.errors]
    problems = verify.check(run, workload, stream, seed, sizes)
    for index, text in errors:
        print(f"ERROR statement #{index}: {text}")
    for text in problems:
        print(f"WRONG {text}")
    failed = len(errors) + len(problems)
    if not trace:
        measured = metrics.end_to_end(run, setup_seconds, peak_rss_mb,
                                      wrong=len(problems))
    completed = run.attempted - len(errors)
    print(f"{name}: seed {seed}, {completed} statements in "
          f"{run.wall_s:.2f} s, "
          f"{sum(len(c.samples) for c in run.clients)} answers checked "
          f"against the naive shadow, "
          f"{sum(len(c.dml) for c in run.clients)} refresh blocks, "
          f"{'traced' if trace else 'untraced'}")
    if math.isfinite(seconds) and completed >= len(stream):
        print(f"NOTE the {len(stream)}-statement stream ran out before "
              f"{seconds} s; raise STREAM_RATE")
    return {"correct": failed == 0, "attempted": run.attempted,
            "failed": failed, "metrics": measured}


def print_metrics(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<28} "
          f"{result['failed'] / max(1, result['attempted']):>16.6g} ratio "
          f"({result['failed']} of {result['attempted']})")


# ----------------------------------------------------------------------
# Exact-counter replay check
# ----------------------------------------------------------------------
def replay_check(seed: int, sizes_name: str = "full",
                 n_statements: int = REPLAY_STATEMENTS) -> dict:
    """Replay a statement prefix twice per single-thread workload and
    require the counters marked exact to repeat exactly.

    Returns ``{workload: {counter: value}}``; raises ``SystemExit`` on a
    disagreement.
    """
    from perf.metrics import EXACT_COUNTERS, EXACT_WORKLOADS

    out, disagreements = {}, []
    for name in EXACT_WORKLOADS:
        replays = []
        for _ in range(2):
            result = run_workload(name, seed, math.inf, trace=True,
                                  sizes_name=sizes_name,
                                  n_statements=n_statements)
            replays.append({c: result["metrics"][c]["value"]
                            for c in EXACT_COUNTERS})
        out[name] = replays[0]
        for counter in EXACT_COUNTERS:
            a, b = replays[0][counter], replays[1][counter]
            if a != b:
                disagreements.append(f"{name} {counter}: {a} then {b}")
    for text in disagreements:
        print(f"NOT EXACT {text}")
    if disagreements:
        raise SystemExit(1)
    return out


# ----------------------------------------------------------------------
# The suite: all workloads, untraced + traced, fresh child processes
# ----------------------------------------------------------------------
def provenance() -> dict:
    import numpy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return {"commit": commit, "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def _child(args: list) -> dict:
    """Run ``perf/run.py`` *args* in a fresh process; parse its last
    stdout line."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"    {line}")
    # Exit code 1 with a result line is a run that found failures; the
    # suite reports those itself.  Anything else is a crashed child.
    try:
        if proc.returncode not in (0, 1):
            raise ValueError("crashed")
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        raise SystemExit(f"child {' '.join(args)} failed "
                         f"(exit code {proc.returncode})") from None


def run_suite(seeds: list, seconds: float, sizes_name: str,
              out_path: str) -> int:
    from perf.metrics import END_TO_END, relative_iqr
    from perf.workloads import WORKLOADS

    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    stem = os.path.splitext(out_path)[0]
    report = {"provenance": provenance(), "seeds": seeds,
              "run_seconds": seconds, "sizes": sizes_name, "workloads": {}}
    any_failed = False
    for name in WORKLOADS:
        passes = {"end_to_end": {}, "per_layer": {}}
        attempted = failed = 0
        for seed in seeds:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                print(f"== {name} seed {seed} "
                      f"{'traced' if trace else 'untraced'}")
                args = ["--workload", name, "--seed", str(seed),
                        "--seconds", repr(seconds), "--trace", str(trace),
                        "--sizes", sizes_name]
                if trace:
                    args += ["--spans-out", f"{stem}.spans-{name}-{seed}.json"]
                result = _child(args)
                print_metrics(result)
                attempted += result["attempted"]
                failed += result["failed"]
                for metric, m in result["metrics"].items():
                    slot = passes[key].setdefault(
                        metric, {"unit": m["unit"], "values": []})
                    slot["values"].append(m["value"])
        for key in passes:
            for slot in passes[key].values():
                slot["median"] = statistics.median(slot["values"])
                slot["spread"] = relative_iqr(slot["values"])
        report["workloads"][name] = {
            **passes, "attempted": attempted, "failed": failed,
            "failed_frac": failed / max(1, attempted)}
        any_failed |= failed > 0

    print("== exact-counter replay check")
    report["exact"] = _child(["--replay-check", "--seed", str(seeds[0]),
                              "--sizes", sizes_name])

    print(f"\n== summary (median over seeds {seeds}; spread = IQR/median)")
    for name, w in report["workloads"].items():
        print(f"{name}  failed_frac {w['failed_frac']:.6g} ratio")
        for m in END_TO_END:
            slot = w["end_to_end"][m.name]
            print(f"  {m.name:<16} {slot['median']:>14.6g} {m.unit:<4} "
                  f"spread {slot['spread']:.3f} (bound {m.bound})")

    def qps(name: str) -> float:
        return report["workloads"][name]["end_to_end"]["queries_per_s"][
            "median"]

    def gmean(name: str) -> float:
        return report["workloads"][name]["end_to_end"]["query_s_gmean"][
            "median"]

    print("derived (not named metrics; every ratio with its base):")
    for name in ("tpch_keepall", "tpch_bounded", "tpch_volatile",
                 "tpch_net"):
        print(f"  recycled/naive  {name} / tpch_naive queries_per_s = "
              f"{qps(name) / qps('tpch_naive'):.3f} "
              f"(base {qps('tpch_naive'):.1f} 1/s)")
    print(f"  network tax     tpch_net - tpch_keepall query_s_gmean = "
          f"{gmean('tpch_net') - gmean('tpch_keepall'):.6f} s "
          f"(base {gmean('tpch_keepall'):.6f} s)")
    for name, w in report["workloads"].items():
        traced = w["per_layer"]
        measured = qps(name) / traced["trace.queries_per_s"]["median"] - 1
        print(f"  tracing         {name}: untraced/traced queries_per_s - 1 "
              f"= {measured:.3f} (base {qps(name):.1f} 1/s untraced; "
              f"calibrated floor overhead_frac "
              f"{traced['trace.overhead_frac']['median']:.3f}), "
              f"coverage_frac {traced['trace.coverage_frac']['median']:.3f}")

    with open(out_path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"wrote {out_path}")
    return 1 if any_failed else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    from perf.driver import OUT_DIR
    from perf.workloads import SIZES, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="run one workload (default: the whole suite)")
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--seeds", type=int, nargs="+",
                    help="suite only: one set of runs per seed")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sizes", choices=list(SIZES), default="full")
    ap.add_argument("--spans-out", help="traced run: write raw spans here")
    ap.add_argument("--replay-check", action="store_true",
                    help="only check that the exact counters repeat")
    ap.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"),
                    help="suite only: result file for perf/compare.py")
    args = ap.parse_args(argv)

    if args.replay_check:
        print(json.dumps(replay_check(args.seed, args.sizes)))
        return 0
    if args.workload is None:
        return run_suite(args.seeds or [args.seed], args.seconds,
                         args.sizes, args.out)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.sizes,
                          spans_out=args.spans_out)
    print_metrics(result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash randomisation must not reach set and dict iteration
        # order in the engine: restart with it pinned.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
