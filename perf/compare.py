#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py`` against the benchmark's
own bounds::

    python3 perf/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of runs of
one commit), B the candidate.  Prints one row per (workload, end-to-end
metric) with both medians, the ratio B/A *with its base*, and a verdict:

* ``regressed``  — B is worse than A by more than the metric's bound;
* ``unresolved`` — not regressed, but either side's spread over its
  seeds (IQR / median) is wider than the bound, so "unchanged" cannot
  be claimed;
* ``ok``         — within the bound, and the spread resolves it.

Exits non-zero on any regression or any rise in ``failed_frac``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
            bound: float) -> str:
    """``regressed`` / ``unresolved`` / ``ok`` for one metric."""
    base = a["median"]
    change = (b["median"] - base) / abs(base) if base else 0.0
    worse = change if better == "lower" else -change    # share of A
    if worse > bound:
        return "regressed"
    if max(a.get("spread", 0.0), b.get("spread", 0.0)) > bound:
        return "unresolved"
    return "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any],
            end_to_end: List[Dict[str, Any]]) -> Tuple[List[str], bool]:
    """Report lines and whether B passes (no regression, no new
    failures)."""
    lines, passed = [], True
    lines.append(f"{'workload':<14} {'metric':<14} {'A':>12} {'B':>12} "
                 f"{'B/A':>7}  {'base':<18} {'spread A/B':<13} "
                 f"{'bound':>5}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:<14} missing from B")
            passed = False
            continue
        for m in end_to_end:
            ma = wa["end_to_end"][m["name"]]
            mb = wb["end_to_end"][m["name"]]
            word = verdict(ma, mb, m["better"], m["bound"])
            passed &= word != "regressed"
            ratio = mb["median"] / ma["median"] if ma["median"] else 0.0
            base = f"A={ma['median']:.6g} {m['unit']}"
            spreads = f"{ma.get('spread', 0):.3f}/{mb.get('spread', 0):.3f}"
            lines.append(
                f"{name:<14} {m['name']:<14} {ma['median']:>12.6g} "
                f"{mb['median']:>12.6g} {ratio:>7.3f}  "
                f"{base:<18} {spreads:<13} {m['bound']:>5}  {word}")
        fa, fb = wa["failed_frac"], wb["failed_frac"]
        word = "regressed" if fb > fa else "ok"
        passed &= fb <= fa
        lines.append(f"{name:<14} {'failed_frac':<14} {fa:>12.6g} "
                     f"{fb:>12.6g} {'':>7}  {'any rise fails':<18} "
                     f"{'':<13} {0:>5}  {word}")
    if "exact" in a and "exact" in b:
        same = a["exact"] == b["exact"]
        lines.append("exact counters (replay check): "
                     + ("identical" if same else "DIFFER"))
        if not same:
            for name, counters in a["exact"].items():
                for counter, value in counters.items():
                    other = b["exact"].get(name, {}).get(counter)
                    if other != value:
                        lines.append(f"  {name} {counter}: A={value} "
                                     f"B={other}")
    return lines, passed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        a = json.load(f)
    with open(argv[1]) as f:
        b = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    lines, passed = compare(a, b, end_to_end)
    print("\n".join(lines))
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
