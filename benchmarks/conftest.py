"""Shared benchmark fixtures.

Scale note: the paper uses TPC-H SF-1 and a 100 GB SkyServer slice; the
benches default to SF 0.01 and a 50k-object sky catalogue (see
``docs/BENCHMARKS.md``).  Shapes — hit ratios, relative times, crossovers — are the
reproduction target, not absolute milliseconds.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.workloads.skyserver import build_sky_templates, load_skyserver
from repro.workloads.tpch import ParamGenerator, build_templates, load_tpch

SF = 0.01
SKY_OBJECTS = 50_000


@pytest.fixture(scope="session")
def tpch_naive_session():
    """One shared naive (recycler-off) TPC-H database for baselines."""
    db = Database(recycle=False)
    load_tpch(db, sf=SF)
    build_templates(db)
    # Warm the data (fills caches, JIT-ish numpy warmup).
    pg = ParamGenerator(seed=1234, sf=SF)
    for name in sorted(db._templates):
        db.run_template(name, pg.params_for(name))
    return db


def make_tpch_db(**kwargs) -> Database:
    db = Database(**kwargs)
    load_tpch(db, sf=SF)
    build_templates(db)
    return db


def make_sky_db(n_obj: int = SKY_OBJECTS, **kwargs) -> Database:
    db = Database(**kwargs)
    load_skyserver(db, n_obj=n_obj)
    build_sky_templates(db)
    return db
