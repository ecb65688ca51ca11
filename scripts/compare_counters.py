#!/usr/bin/env python3
"""Compare two exact-counter files of shape ``{group: {counter: value}}``.

    python3 scripts/compare_counters.py NOW.json COMMITTED.json

Prints every counter whose value differs (or that only one file has)
and exits 1, or prints that they are equal and exits 0.  Used for the
replay counters of ``perf/run.py --replay-check`` and the capacity
counters of ``scripts/capacity_counters.py``.
"""

from __future__ import annotations

import json
import sys


def differences(got: dict, want: dict) -> list:
    return [f"{g} {c}: committed {want.get(g, {}).get(c)}, "
            f"now {got.get(g, {}).get(c)}"
            for g in sorted(set(want) | set(got))
            for c in sorted(set(want.get(g, {})) | set(got.get(g, {})))
            if want.get(g, {}).get(c) != got.get(g, {}).get(c)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(args[0]) as f:
        got = json.load(f)
    with open(args[1]) as f:
        want = json.load(f)
    diff = differences(got, want)
    print("\n".join(diff) or f"{args[0]} equals the committed {args[1]}")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
