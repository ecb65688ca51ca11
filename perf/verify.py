"""The correctness gate: every sampled answer against a naive shadow.

After the timed phase (so it costs the measurement nothing, and is not
part of ``setup_s``) the statements whose rows were kept — every
``VERIFY_EVERY``-th of the stream — are replayed on a ``recycle=False``
shadow engine built from the same data.  For ``tpch_volatile`` the
shadow applies the same seeded refresh blocks at the same stream
positions, so it is in the same state when each sampled statement runs.
"""

from __future__ import annotations

import datetime
import math
from typing import Any, List, Sequence

import numpy as np

import repro

from perf.driver import RunLog
from perf.workloads import (
    Sizes,
    Statement,
    Workload,
    build_engine,
    refresh_stream,
)

#: Floats agree to this relative error (subsumed results are computed
#: over different intermediates, so sums may differ in the last digits).
REL_TOL = 1e-9

_SHADOW = Workload("shadow", "recycle=False reference engine",
                   recycle=False)


def _same(got: Any, want: Any) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want):
            return math.isnan(got)
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL)
    if isinstance(want, (datetime.date, np.datetime64)):
        # Dates arrive as datetime.date embedded, np.datetime64 by wire.
        return str(got) == str(want)
    return got == want


def _rows_same(got: Sequence[tuple], want: Sequence[tuple]) -> bool:
    return len(got) == len(want) and all(
        len(g) == len(w) and all(_same(a, b) for a, b in zip(g, w))
        for g, w in zip(got, want))


def rows_match(got: Sequence[tuple], want: Sequence[tuple]) -> bool:
    """Row-for-row equality, floats to ``REL_TOL``; a statement without
    ORDER BY may return its rows in another order (a result assembled by
    combined subsumption does), so a sorted comparison also passes."""
    if _rows_same(got, want):
        return True
    def key(row):
        return tuple(str(v) for v in row)
    return len(got) == len(want) and _rows_same(sorted(got, key=key),
                                                sorted(want, key=key))


def check(run: RunLog, workload: Workload, stream: Sequence[Statement],
          seed: int, sizes: Sizes) -> List[str]:
    """Messages for every sampled statement whose rows differ from the
    shadow's (empty = all correct)."""
    samples = {i: rows for c in run.clients for i, rows in c.samples}
    blocks_after = {i for c in run.clients for i, _lat in c.dml}
    shadow = build_engine(_SHADOW, seed, sizes)
    problems: List[str] = []
    try:
        refresh = refresh_stream(shadow, seed) if workload.volatile else None
        with repro.connect(database=shadow) as conn:
            cur = conn.cursor()
            for i in sorted(samples.keys() | blocks_after):
                if i in samples:
                    stmt = stream[i]
                    cur.execute(stmt.sql, stmt.params)
                    if not rows_match(samples[i], cur.fetchall()):
                        problems.append(
                            f"statement #{i} ({stmt.name}) differs from "
                            f"the naive shadow: {stmt.params}")
                if i in blocks_after:
                    refresh.update_block()
    finally:
        shadow.close()
    return problems
