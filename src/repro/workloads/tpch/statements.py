"""Parameterized SQL statements for the TPC-H workload (DB-API front door).

The builder templates in :mod:`repro.workloads.tpch.queries` cover all 22
queries; this module expresses the subset our SQL dialect can plan as
*prepared statements* with ``:name`` placeholders, plus adapters that turn
:class:`~repro.workloads.tpch.params.ParamGenerator` draws into statement
parameter mappings.  Each statement is one query template in the paper's
sense (§2.2): every instance binds fresh parameters into the same
compiled plan, so a batch produced by :func:`sql_instances` exercises the
compile cache (hit on every execution after a template's first) and the
recycler exactly as parameterized client traffic would.

Spec constants (Q12's priority classes, Q14's ``PROMO`` prefix, Q10's
``R`` return flag) stay inline — they are part of the template, not
per-instance parameters.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.workloads.tpch.params import ParamGenerator

#: name -> parameterized SQL text (``:name`` placeholders).
SQL_STATEMENTS: Dict[str, str] = {
    # Q1 pricing summary: the client computes the shipdate bound
    # (1998-12-01 minus delta days) — intervals parametrise their base
    # date, not their magnitude.
    "q01": (
        "select l_returnflag, l_linestatus, "
        "sum(l_quantity) as sum_qty, "
        "sum(l_extendedprice) as sum_base_price, "
        "sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, "
        "avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, "
        "count(*) as count_order "
        "from lineitem where l_shipdate <= :hi "
        "group by l_returnflag, l_linestatus "
        "order by l_returnflag, l_linestatus"
    ),
    # Q3 shipping priority (the LIMIT is part of the template).
    "q03": (
        "select l_orderkey, "
        "sum(l_extendedprice * (1 - l_discount)) as revenue, "
        "o_orderdate, o_shippriority "
        "from customer, orders, lineitem "
        "where c_mktsegment = :segment and c_custkey = o_custkey "
        "and l_orderkey = o_orderkey "
        "and o_orderdate < :date and l_shipdate > :date "
        "group by l_orderkey, o_orderdate, o_shippriority "
        "order by revenue desc, o_orderdate limit 10"
    ),
    # Q5 local supplier volume (six-way join).
    "q05": (
        "select n_name, "
        "sum(l_extendedprice * (1 - l_discount)) as revenue "
        "from customer, orders, lineitem, supplier, nation, region "
        "where c_custkey = o_custkey and l_orderkey = o_orderkey "
        "and l_suppkey = s_suppkey and c_nationkey = s_nationkey "
        "and s_nationkey = n_nationkey and n_regionkey = r_regionkey "
        "and r_name = :region "
        "and o_orderdate >= :date "
        "and o_orderdate < :date + interval '1' year "
        "group by n_name order by revenue desc"
    ),
    # Q6 forecast revenue change.
    "q06": (
        "select sum(l_extendedprice * l_discount) as revenue "
        "from lineitem "
        "where l_shipdate >= :date "
        "and l_shipdate < :date + interval '1' year "
        "and l_discount between :disc_lo and :disc_hi "
        "and l_quantity < :quantity"
    ),
    # Q10-style returned-item reporting (no LIMIT: our reduced-scale
    # data keeps the result small).
    "q10": (
        "select c_custkey, c_name, "
        "sum(l_extendedprice * (1 - l_discount)) as revenue, c_acctbal "
        "from customer, orders, lineitem "
        "where c_custkey = o_custkey and l_orderkey = o_orderkey "
        "and o_orderdate >= :date "
        "and o_orderdate < :date + interval '3' month "
        "and l_returnflag = 'R' "
        "group by c_custkey, c_name, c_acctbal "
        "order by revenue desc"
    ),
    # Q12-style shipping modes and order priority.
    "q12": (
        "select l_shipmode, count(*) as n "
        "from orders, lineitem "
        "where o_orderkey = l_orderkey "
        "and l_shipmode in (:mode1, :mode2) "
        "and l_receiptdate >= :date "
        "and l_receiptdate < :date + interval '1' year "
        "group by l_shipmode order by l_shipmode"
    ),
    # Q14 promotion effect.
    "q14": (
        "select sum(case when p_type like 'PROMO%' "
        "then l_extendedprice * (1 - l_discount) else 0 end) "
        "/ sum(l_extendedprice * (1 - l_discount)) as promo_revenue "
        "from lineitem, part "
        "where l_partkey = p_partkey "
        "and l_shipdate >= :date "
        "and l_shipdate < :date + interval '1' month"
    ),
}

#: The statements driven by default batches.
SQL_TEMPLATES: Tuple[str, ...] = tuple(SQL_STATEMENTS)


def statement_params(name: str, draw: Dict[str, Any]) -> Dict[str, Any]:
    """Adapt one :class:`ParamGenerator` draw to statement parameters.

    *draw* is ``ParamGenerator.params_for(name)`` output; the result
    binds the ``:name`` placeholders of ``SQL_STATEMENTS[name]``.
    """
    if name == "q01":
        hi = np.datetime64("1998-12-01") - np.timedelta64(draw["delta"], "D")
        return {"hi": hi}
    if name == "q03":
        return {"segment": draw["segment"], "date": draw["date"]}
    if name == "q05":
        return {"region": draw["region"], "date": draw["date"]}
    if name == "q06":
        return {"date": draw["date"], "disc_lo": draw["disc_lo"],
                "disc_hi": draw["disc_hi"], "quantity": draw["quantity"]}
    if name == "q10":
        return {"date": draw["date"]}
    if name == "q12":
        mode1, mode2 = draw["modes"]
        return {"mode1": mode1, "mode2": mode2, "date": draw["date"]}
    if name == "q14":
        return {"date": draw["date"]}
    raise ValueError(f"no parameterized statement for {name!r}")


def sql_instances(n_instances_each: int = 10, seed: int = 77,
                  queries: Tuple[str, ...] = SQL_TEMPLATES,
                  sf: float = 0.01
                  ) -> List[Tuple[str, str, Dict[str, Any]]]:
    """A shuffled batch of ``(name, sql, params)`` statement instances.

    The prepared-statement analogue of
    :func:`repro.workloads.tpch.params.mixed_instances`: *n*
    instances of each statement with spec-rule parameters, shuffled
    deterministically, ready for
    :func:`repro.bench.harness.run_workload` or
    ``Cursor.executemany``-style loops.
    """
    pg = ParamGenerator(seed=seed, sf=sf)
    out = [
        (name, SQL_STATEMENTS[name],
         statement_params(name, pg.params_for(name)))
        for name in queries
        for _ in range(n_instances_each)
    ]
    random.Random(seed).shuffle(out)
    return out
