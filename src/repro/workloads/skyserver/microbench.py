"""Combined-subsumption micro-benchmarks (paper §8.3, Figure 15).

The paper instantiates a spatial range pattern so that each *seed* query
(selectivity ``s`` over right ascension) is answerable only by combining
``k`` previously executed *covering* queries — no single cached range
contains the seed.  ``combined_subsumption_batch`` reproduces that
construction: per seed, ``k`` overlapping ranges of width
``1.2 * w / (k-1)`` are laid across the seed range (mutually overlapping,
none individually covering), followed by the seed itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.workloads.skyserver.generator import RA_RANGE


#: The micro-benchmark query: an RA range scan plus a count.  It compiles
#: to one two-sided ``algebra.select`` over the ``ra`` bind, isolating the
#: subsumption machinery the figure measures.
RANGE_SQL = "select count(*) as n from photoobj where ra between :lo and :hi"


@dataclass(frozen=True)
class RangeQuery:
    """One micro-benchmark instance."""

    lo: float
    hi: float
    is_seed: bool


def combined_subsumption_batch(
    n_seeds: int,
    k: int,
    selectivity: float = 0.02,
    seed: int = 31,
    ra_range: Tuple[float, float] = RA_RANGE,
) -> List[RangeQuery]:
    """Build the B*k* benchmark: per seed, *k* covering queries + the seed.

    ``selectivity`` is the seed query's fraction of the RA span (the
    paper's ``s = 2 %``).  Covering queries overlap pairwise and jointly
    cover the seed, but none covers it alone, so answering the seed
    requires *combined* subsumption.
    """
    if k < 2:
        raise ValueError("combined subsumption needs k >= 2")
    rng = np.random.default_rng(seed)
    span = ra_range[1] - ra_range[0]
    width = selectivity * span
    cover_width = 1.2 * width / (k - 1)
    out: List[RangeQuery] = []
    for _ in range(n_seeds):
        lo = float(rng.uniform(ra_range[0] + width,
                               ra_range[1] - 2 * width))
        centers = [lo + (j + 0.5) * width / k for j in range(k)]
        for c in centers:
            out.append(RangeQuery(
                round(c - cover_width / 2, 6),
                round(c + cover_width / 2, 6),
                is_seed=False,
            ))
        out.append(RangeQuery(round(lo, 6), round(lo + width, 6),
                              is_seed=True))
    return out
