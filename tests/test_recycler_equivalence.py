"""Property-based equivalence: recycled execution == naive execution.

The recycler's core correctness contract: for ANY sequence of template
invocations — with any admission/eviction policies, any resource limits,
subsumption on or off, interleaved with updates — results must be
identical to a recycler-less engine.  Hypothesis drives randomised
workloads against both engines.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AdaptiveCreditAdmission,
    BenefitEviction,
    CreditAdmission,
    Database,
    HistoryEviction,
    LruEviction,
)


def build_db(**kwargs) -> Database:
    db = Database(**kwargs)
    rng = np.random.default_rng(99)
    n = 5000
    db.create_table(
        "f", {"v": "float64", "g": "int64", "s": "U8"},
        {
            "v": rng.random(n) * 100,
            "g": rng.integers(0, 12, n),
            "s": rng.choice(["AA", "AB", "BA", "BB"], n),
        },
    )
    # Template 1: range count.
    q = db.builder("range")
    lo, hi = q.param("lo"), q.param("hi")
    q.scan("f")
    q.filter_range("f", "v", lo=lo, hi=hi)
    q.select_scalar("n", q.agg_scalar("count"))
    db.register_template(q.build())
    # Template 2: filtered group-by with ordering.
    q = db.builder("group")
    lo = q.param("lo")
    pat = q.param("pat")
    q.scan("f")
    q.filter_range("f", "v", lo=lo)
    q.filter_like("f", "s", pat)
    keys = q.groupby([q.col("f", "g")])
    total = q.agg_sum(q.col("f", "v"))
    q.select([("g", keys[0]), ("total", total)], order_by=[(keys[0], True)])
    db.register_template(q.build())
    return db


range_params = st.tuples(
    st.floats(min_value=0, max_value=90, allow_nan=False),
    st.floats(min_value=0, max_value=30, allow_nan=False),
).map(lambda t: ("range", {"lo": round(t[0], 2),
                           "hi": round(t[0] + t[1], 2)}))

group_params = st.tuples(
    st.floats(min_value=0, max_value=80, allow_nan=False),
    st.sampled_from(["A%", "B%", "%A", "AA", "%"]),
).map(lambda t: ("group", {"lo": round(t[0], 2), "pat": t[1]}))

workload = st.lists(st.one_of(range_params, group_params), min_size=1,
                    max_size=12)

policies = st.sampled_from([
    dict(),
    dict(admission=None, max_entries=10),
    dict(max_bytes=200_000),
    dict(subsumption=False),
])


@given(batch=workload, policy=policies)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_recycled_matches_naive(batch, policy):
    kwargs = dict(policy)
    if kwargs.pop("admission", "x") is None:
        kwargs["admission"] = CreditAdmission(2)
    recycled = build_db(**kwargs)
    naive = build_db(recycle=False)
    for name, params in batch:
        a = recycled.run_template(name, params).value
        b = naive.run_template(name, params).value
        assert a.rows() == b.rows(), (name, params)


@given(
    batch=st.lists(range_params, min_size=2, max_size=8),
    eviction=st.sampled_from(["lru", "bp", "hp"]),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_eviction_policies_preserve_results(batch, eviction):
    ev = {"lru": LruEviction, "bp": BenefitEviction,
          "hp": HistoryEviction}[eviction]()
    recycled = build_db(eviction=ev, max_entries=6)
    naive = build_db(recycle=False)
    for name, params in batch:
        a = recycled.run_template(name, params).value
        b = naive.run_template(name, params).value
        assert a.rows() == b.rows()


@given(
    inserts=st.lists(
        st.floats(min_value=0, max_value=120, allow_nan=False),
        min_size=1, max_size=5,
    ),
    propagate=st.booleans(),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_updates_preserve_results(inserts, propagate):
    recycled = build_db(propagate_selects=propagate)
    naive = build_db(recycle=False)
    params = {"lo": 10.0, "hi": 60.0}
    for v in inserts:
        for db in (recycled, naive):
            db.run_template("range", params)
            db.insert("f", {"v": [round(v, 2)], "g": [0], "s": ["AA"]})
        a = recycled.run_template("range", params).value.scalar()
        b = naive.run_template("range", params).value.scalar()
        assert a == b


def test_adaptive_policy_equivalence_long_run():
    recycled = build_db(admission=AdaptiveCreditAdmission(credits=2))
    naive = build_db(recycle=False)
    rng = np.random.default_rng(5)
    for _ in range(25):
        lo = float(np.round(rng.uniform(0, 80), 1))
        params = {"lo": lo, "hi": lo + 15.0}
        a = recycled.run_template("range", params).value.scalar()
        b = naive.run_template("range", params).value.scalar()
        assert a == b
