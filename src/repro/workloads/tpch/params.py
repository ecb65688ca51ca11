"""TPC-H substitution parameters (qgen).

Generates per-query parameter dictionaries following the specification's
substitution rules (value domains, date grids), keyed to the template
parameter names of :mod:`repro.workloads.tpch.queries`.  A seeded RNG makes
runs reproducible; drawing repeatedly yields the "same template, different
parameters" instances the paper's micro-benchmarks use (§7.1).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.workloads.tpch.generator import (
    NATIONS,
    P_NAME_WORDS,
    REGIONS,
    SEGMENTS,
    SHIPMODES,
    TYPE_SYLL1,
    TYPE_SYLL2,
    TYPE_SYLL3,
)

NATION_NAMES = [n for n, _r in NATIONS]
CONTAINERS_Q17 = ["SM CASE", "LG BOX", "MED PKG", "JUMBO JAR", "WRAP PACK"]


class ParamGenerator:
    """Draws substitution parameter sets for the 22 query templates."""

    def __init__(self, seed: int = 7, sf: float = 0.01):
        self.rng = np.random.default_rng(seed)
        self.sf = sf

    # ------------------------------------------------------------------
    def params_for(self, query: str) -> Dict[str, Any]:
        """A fresh parameter binding for template *query* (e.g. ``"q06"``)."""
        fn = getattr(self, f"_{query}", None)
        if fn is None:
            raise ValueError(f"no parameter rule for {query!r}")
        return fn()

    # ------------------------------------------------------------------
    def _month_start(self, lo_year: int, hi_year: int) -> np.datetime64:
        year = int(self.rng.integers(lo_year, hi_year + 1))
        month = int(self.rng.integers(1, 13))
        return np.datetime64(f"{year}-{month:02d}-01")

    def _nation(self) -> str:
        return str(self.rng.choice(NATION_NAMES))

    def _q01(self):
        return {"delta": int(self.rng.integers(60, 121))}

    def _q02(self):
        return {
            "size": int(self.rng.integers(1, 51)),
            "type_pattern": "%" + str(self.rng.choice(TYPE_SYLL3)),
            "region": str(self.rng.choice(REGIONS)),
        }

    def _q03(self):
        day = int(self.rng.integers(1, 32))
        return {
            "segment": str(self.rng.choice(SEGMENTS)),
            "date": np.datetime64(f"1995-03-{day:02d}"),
        }

    def _q04(self):
        return {"date": self._month_start(1993, 1997)}

    def _q05(self):
        return {
            "region": str(self.rng.choice(REGIONS)),
            "date": np.datetime64(f"{self.rng.integers(1993, 1998)}-01-01"),
        }

    def _q06(self):
        disc = round(float(self.rng.integers(2, 10)) / 100, 2)
        return {
            "date": np.datetime64(f"{self.rng.integers(1993, 1998)}-01-01"),
            "disc_lo": round(disc - 0.01, 2),
            "disc_hi": round(disc + 0.01, 2),
            "quantity": float(self.rng.integers(24, 26)),
        }

    def _q07(self):
        a, b = self.rng.choice(len(NATION_NAMES), 2, replace=False)
        return {"nation1": NATION_NAMES[a], "nation2": NATION_NAMES[b]}

    def _q08(self):
        idx = int(self.rng.integers(0, len(NATIONS)))
        nation, region_idx = NATIONS[idx]
        ptype = " ".join([
            str(self.rng.choice(TYPE_SYLL1)),
            str(self.rng.choice(TYPE_SYLL2)),
            str(self.rng.choice(TYPE_SYLL3)),
        ])
        return {
            "nation": nation,
            "region": REGIONS[region_idx],
            "type": ptype,
        }

    def _q09(self):
        return {"color_pattern": "%" + str(self.rng.choice(P_NAME_WORDS)) + "%"}

    def _q10(self):
        return {"date": self._month_start(1993, 1994)}

    def _q11(self):
        # The spec's fraction (0.0001/SF) is ~1.7x the mean per-part share
        # of one nation's stock; we keep that *relative* threshold so the
        # query stays selective-but-non-empty at reduced scale.
        n_part = max(200, int(200_000 * self.sf))
        parts_per_nation = max(1, int(n_part * 4 / 25))
        return {
            "nation": self._nation(),
            "fraction": round(1.7 / parts_per_nation, 9),
        }

    def _q12(self):
        m = self.rng.choice(len(SHIPMODES), 2, replace=False)
        return {
            "modes": (SHIPMODES[m[0]], SHIPMODES[m[1]]),
            "date": np.datetime64(f"{self.rng.integers(1993, 1998)}-01-01"),
        }

    def _q13(self):
        w1 = str(self.rng.choice(["special", "pending", "unusual",
                                  "express"]))
        w2 = str(self.rng.choice(["packages", "requests", "accounts",
                                  "deposits"]))
        return {"pattern": f"%{w1}%{w2}%"}

    def _q14(self):
        return {"date": self._month_start(1993, 1997)}

    def _q15(self):
        return {"date": self._month_start(1993, 1997)}

    def _q16(self):
        sizes = self.rng.choice(np.arange(1, 51), 8, replace=False)
        brand = f"Brand#{self.rng.integers(1, 6)}{self.rng.integers(1, 6)}"
        tpat = (str(self.rng.choice(TYPE_SYLL1)) + " "
                + str(self.rng.choice(TYPE_SYLL2)) + "%")
        return {
            "brand": brand,
            "type_pattern": tpat,
            "sizes": tuple(int(s) for s in sizes),
        }

    def _q17(self):
        brand = f"Brand#{self.rng.integers(1, 6)}{self.rng.integers(1, 6)}"
        return {
            "brand": brand,
            "container": str(self.rng.choice(CONTAINERS_Q17)),
        }

    def _q18(self):
        # Our dbgen caps orders at 7 lines x 50 qty; 250-300 plays the
        # spec's 312-315 "rare heavy order" role at reduced scale.
        return {"quantity": float(self.rng.integers(250, 301))}

    def _q19(self):
        out: Dict[str, Any] = {}
        for i, (lo, hi) in enumerate([(1, 11), (10, 21), (20, 31)], start=1):
            out[f"brand{i}"] = (
                f"Brand#{self.rng.integers(1, 6)}{self.rng.integers(1, 6)}"
            )
            out[f"qty{i}"] = float(self.rng.integers(lo, hi))
        return out

    def _q20(self):
        return {
            "color_pattern": str(self.rng.choice(P_NAME_WORDS)) + "%",
            "date": np.datetime64(f"{self.rng.integers(1993, 1998)}-01-01"),
            "nation": self._nation(),
        }

    def _q21(self):
        return {"nation": self._nation()}

    def _q22(self):
        codes = self.rng.choice(np.arange(10, 35), 7, replace=False)
        return {"codes": tuple(str(int(c)) for c in codes)}


#: The paper's mixed workload templates (§7.2) — large pairwise overlaps.
MIXED_TEMPLATES = ("q04", "q07", "q08", "q11", "q12", "q16", "q18", "q19",
                   "q21", "q22")


def mixed_instances(n_instances_each: int = 10, seed: int = 77,
                    queries: Sequence[str] = MIXED_TEMPLATES,
                    sf: float = 0.01
                    ) -> List[Tuple[str, Dict[str, Any]]]:
    """The §7.2 batch: *n* ``(template, params)`` instances of each
    template, shuffled."""
    pg = ParamGenerator(seed=seed, sf=sf)
    items: List[Tuple[str, Dict[str, Any]]] = []
    for name in queries:
        for _ in range(n_instances_each):
            items.append((name, pg.params_for(name)))
    rng = np.random.default_rng(seed)
    rng.shuffle(items)
    return items
