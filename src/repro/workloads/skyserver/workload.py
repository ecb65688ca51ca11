"""SkyServer query templates and the query-log sampler (paper §8.1-8.2).

The workload is written once, in SQL (:data:`SKY_SQL`): every engine,
benchmark and example runs these statements, so the plans the recycler
sees are the ones the SQL front end compiles (§2.2).  Three template
classes reproduce the observed log composition:

* ``sky_nearby`` (>60 %): the dominant web pattern — a spatial cone search
  through the PhotoPrimary view joined back for 19 photometric
  attributes.  Instances draw from two *overlapping* parameter sets, as
  the paper observed, so the recycler reuses the majority of each plan.
* ``sky_doc`` (~36 %): small lookups against the documentation tables.
* ``sky_point`` (~2 %): point queries by ``specObjId``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.workloads.skyserver.generator import DOC_NAMES


#: The three templates as parameterized SQL (``:name`` placeholders).
#: The spatial statement lowers ``fGetNearbyObjEq`` the way a relational
#: engine would run it: a bounding-box range selection on ``ra``/``dec``
#: (the recycler's subsumption target) followed by the exact circle test.
SKY_SQL: Dict[str, str] = {
    "sky_nearby": (
        "select ra, dec, "
        "(ra - :ra) * (ra - :ra) + (dec - :dec) * (dec - :dec) as dist2, "
        "objid, run, rerun, camcol, field, obj, type, "
        "flags, status, psfmag_u, psfmag_g, psfmag_r, psfmag_i, "
        "psfmag_z, petror50_r, specobjid "
        "from photoobj where mode = 1 "
        "and ra >= :ra - :r and ra <= :ra + :r "
        "and dec >= :dec - :r and dec <= :dec + :r "
        "and (ra - :ra) * (ra - :ra) + (dec - :dec) * (dec - :dec) "
        "<= :r * :r limit 1"
    ),
    "sky_doc": (
        "select name, type, description from dbobjects "
        "where name = :name"
    ),
    "sky_point": (
        "select specobjid, z, zerr, quality, restwave, ew "
        "from elredshift where specobjid = :specobjid"
    ),
}


@dataclass(frozen=True)
class QueryInstance:
    """One sampled log entry: template name plus parameter bindings."""

    template: str
    params: Dict[str, Any]

    def as_sql(self) -> Tuple[str, Dict[str, Any]]:
        """This entry as a parameterized ``(sql, params)`` statement."""
        return SKY_SQL[self.template], dict(self.params)


class SkyQueryLog:
    """Samples a synthetic query log with the paper's observed mix.

    Args:
        spec_ids: existing ``specobjid`` values for point queries.
        spatial_centers: the overlapping parameter sets of the dominant
            pattern (default: the two sets the paper describes, around the
            example query's ``fGetNearbyObjEq(195, 2.5, 0.5)``).
        subsumable_fraction: fraction of spatial queries drawn *inside*
            a center's circle (smaller radius), exercising run-time
            subsumption instead of exact match.
    """

    def __init__(
        self,
        spec_ids: np.ndarray,
        seed: int = 23,
        spatial_centers: Optional[List[Tuple[float, float, float]]] = None,
        mix: Tuple[float, float, float] = (0.62, 0.36, 0.02),
        subsumable_fraction: float = 0.25,
    ):
        self.rng = np.random.default_rng(seed)
        self.spec_ids = np.asarray(spec_ids)
        self.centers = spatial_centers or [
            (195.0, 2.5, 0.5),
            (195.3, 2.7, 0.6),
        ]
        self.mix = mix
        self.subsumable_fraction = subsumable_fraction

    def _spatial(self) -> QueryInstance:
        ra, dec, radius = self.centers[
            int(self.rng.integers(0, len(self.centers)))
        ]
        if self.rng.random() < self.subsumable_fraction:
            # A narrower search inside the same circle: no exact match in
            # the pool, but range subsumption applies (§5.1).
            shrink = float(self.rng.uniform(0.4, 0.9))
            radius = round(radius * shrink, 3)
        return QueryInstance(
            "sky_nearby", {"ra": ra, "dec": dec, "r": radius}
        )

    def _doc(self) -> QueryInstance:
        name = str(self.rng.choice(DOC_NAMES[:8]))
        return QueryInstance("sky_doc", {"name": name})

    def _point(self) -> QueryInstance:
        sid = int(self.rng.choice(self.spec_ids))
        return QueryInstance("sky_point", {"specobjid": sid})

    def sample(self, n: int) -> List[QueryInstance]:
        """Draw *n* log entries with the configured class mix."""
        draws = self.rng.random(n)
        out = []
        spatial_p, doc_p, _point_p = self.mix
        for d in draws:
            if d < spatial_p:
                out.append(self._spatial())
            elif d < spatial_p + doc_p:
                out.append(self._doc())
            else:
                out.append(self._point())
        return out

    def sample_sql(self, n: int) -> List[Tuple[str, Dict[str, Any]]]:
        """Draw *n* log entries as parameterized ``(sql, params)`` pairs.

        The prepared-statement form of :meth:`sample`, ready for
        DB-API cursors or
        :func:`repro.bench.harness.run_workload`: each class is one
        statement text, so the whole log compiles three plans and every
        later entry is a compile-cache hit.
        """
        return [qi.as_sql() for qi in self.sample(n)]
