#!/usr/bin/env python3
"""Timing-free capacity counters of the recycler on the smoke stream.

Plays the seed-77 smoke statement stream of ``perf/run.py``, cut at
400 statements the way ``run.py`` cuts it, under four capacity
configurations:

* ``keepall`` — unlimited, no DML: every warm statement is a run of
  exact hits, which is where the top-down pool probe books the most;
* ``bytes_spill`` — ``max_bytes`` 1 MiB with a spill tier (quota 2 MiB)
  and the spill store's clock pinned at 0, so demotion never depends on
  measured I/O;
* ``entries`` — ``max_entries`` 300;
* ``refresh`` — unlimited, with one RF1+RF2 refresh block after every
  25th statement, so invalidation drops what each block makes stale.

For each it checks the pool invariants and prints, as one JSON object
on the last line, every integer field of ``recycler.totals`` plus a
digest of the final pool order as ``(opname, seq, tier, local_reuses,
global_reuses, subsumed_reuses)``.  No field
depends on a measured time, so the output is exact::

    PYTHONHASHSEED=0 python3 scripts/capacity_counters.py

CI compares it with ``scripts/capacity_counters_smoke77.json`` through
``scripts/compare_counters.py``; a change that moves a counter updates
that file and says why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import repro  # noqa: E402
from perf.workloads import (  # noqa: E402
    REFRESH_EVERY,
    SKY_DATA_SEED,
    SMOKE,
    TPCH_DATA_SEED,
    make_stream,
    refresh_stream,
    sky_spec_ids,
    spec_ids_of,
    warmup_statements,
)
from repro.workloads.skyserver.generator import load_skyserver  # noqa: E402
from repro.workloads.tpch.generator import load_tpch  # noqa: E402

SEED = 77
N_STATEMENTS = 400


def _engine(config: str, spill_dir: str) -> repro.Database:
    """A warm engine with a cold pool, as ``perf``'s ``build_engine``
    makes one, but under *config*'s capacity limits."""
    if config == "bytes_spill":
        db = repro.Database(max_bytes=SMOKE.max_bytes, spill_dir=spill_dir,
                            spill_limit_bytes=SMOKE.spill_limit_bytes)
        db.recycler.spill.clock = lambda: 0.0
    elif config == "entries":
        db = repro.Database(max_entries=300)
    else:
        db = repro.Database()
    load_tpch(db, sf=SMOKE.sf, seed=TPCH_DATA_SEED)
    load_skyserver(db, n_obj=SMOKE.sky_objects, seed=SKY_DATA_SEED)
    with repro.connect(database=db) as conn:
        cur = conn.cursor()
        for stmt in warmup_statements(SEED, spec_ids_of(db), SMOKE.sf):
            cur.execute(stmt.sql, stmt.params)
            cur.fetchall()
    db.reset_recycler()
    return db


def play(config: str, stream) -> dict:
    """Play *stream* under *config*; the integer totals and pool digest."""
    spill_dir = tempfile.mkdtemp(prefix="capacity-")
    try:
        db = _engine(config, spill_dir)
        refresh = (refresh_stream(db, SEED) if config == "refresh"
                   else None)
        with repro.connect(database=db) as conn:
            cur = conn.cursor()
            for i, stmt in enumerate(stream):
                cur.execute(stmt.sql, stmt.params)
                cur.fetchall()
                if refresh is not None and (i + 1) % REFRESH_EVERY == 0:
                    refresh.update_block()
        db.recycler.check_invariants()
        totals = db.recycler.totals
        out = {f.name: getattr(totals, f.name)
               for f in dataclasses.fields(totals)
               if isinstance(getattr(totals, f.name), int)}
        order = [(e.opname, e.seq, e.state, e.local_reuses,
                  e.global_reuses, e.subsumed_reuses)
                 for e in db.recycler.pool.entries()]
        out["pool_entries"] = len(order)
        out["pool_order_sha256"] = hashlib.sha256(
            json.dumps(order).encode()).hexdigest()
        db.close()
        return out
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)


def main() -> int:
    stream = make_stream(SEED, N_STATEMENTS, sky_spec_ids(SMOKE),
                         SMOKE.sf)[:N_STATEMENTS]
    print(json.dumps({config: play(config, stream)
                      for config in ("keepall", "bytes_spill", "entries",
                                     "refresh")},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
