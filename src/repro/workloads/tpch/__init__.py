"""TPC-H: schema, data generator (dbgen), query templates, qgen parameters,
and refresh functions (RF1/RF2).

The paper evaluates against TPC-H SF-1; this reproduction defaults to
SF 0.01–0.05 (laptop scale) — commonality percentages and reuse shapes are
scale-independent plan properties (see ``docs/BENCHMARKS.md``).
"""

from repro.workloads.tpch.generator import generate_tpch, load_tpch
from repro.workloads.tpch.queries import TEMPLATE_BUILDERS, build_templates
from repro.workloads.tpch.params import (
    MIXED_TEMPLATES,
    ParamGenerator,
    mixed_instances,
)
from repro.workloads.tpch.refresh import RefreshStream
from repro.workloads.tpch.statements import (
    SQL_STATEMENTS,
    SQL_TEMPLATES,
    sql_instances,
    statement_params,
)

__all__ = [
    "generate_tpch",
    "load_tpch",
    "TEMPLATE_BUILDERS",
    "build_templates",
    "ParamGenerator",
    "RefreshStream",
    "MIXED_TEMPLATES",
    "mixed_instances",
    "SQL_STATEMENTS",
    "SQL_TEMPLATES",
    "sql_instances",
    "statement_params",
]
