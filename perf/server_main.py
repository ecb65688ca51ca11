"""The server process of the untraced ``tpch_net`` workload.

Builds and prepares the engine exactly as the embedded workloads do,
serves it until SIGTERM, then drains.  Prints ``LISTENING <port>`` once
the socket is bound — the benchmark process waits for that line.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]


def main(argv=None) -> int:
    from repro.net.server import serve_forever

    from perf.workloads import SIZES, WORKLOADS, build_engine

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sizes", default="full", choices=sorted(SIZES))
    args = ap.parse_args(argv)

    db = build_engine(WORKLOADS[args.workload], args.seed, SIZES[args.sizes])

    def ready(server) -> None:
        print(f"LISTENING {server.port}", flush=True)

    asyncio.run(serve_forever(db, "127.0.0.1", 0, ready=ready, owns_db=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
