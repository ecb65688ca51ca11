"""Synthetic SkyServer workload (paper §8).

The real SDSS DR4 data and query logs are not available offline; this
package generates the closest synthetic equivalent (see
``docs/BENCHMARKS.md``): a PhotoObj-like catalogue, the ``fGetNearbyObjEq``
spatial-search template, the documentation-table and point-query templates,
and a query-log sampler reproducing the mix the paper reports (>60 %
spatial template with two overlapping parameter sets, ~36 % documentation
queries, ~2 % point queries).
"""

from repro.workloads.skyserver.generator import load_skyserver
from repro.workloads.skyserver.workload import (
    SKY_SQL,
    QueryInstance,
    SkyQueryLog,
    build_sky_templates,
)
from repro.workloads.skyserver.microbench import (
    combined_subsumption_batch,
    build_range_template,
)

__all__ = [
    "load_skyserver",
    "SKY_SQL",
    "QueryInstance",
    "SkyQueryLog",
    "build_sky_templates",
    "combined_subsumption_batch",
    "build_range_template",
]
