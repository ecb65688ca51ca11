"""Shared fixtures: small synthetic databases and TPC-H/SkyServer loads."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.workloads.skyserver import load_skyserver
from repro.workloads.tpch import build_templates, load_tpch


@pytest.fixture
def tiny_db() -> Database:
    """Two small joined tables with a FK index."""
    db = Database()
    rng = np.random.default_rng(0)
    n_o, n_l = 200, 800
    db.create_table(
        "orders",
        {"o_orderkey": "int64", "o_date": "int64", "o_cust": "int64"},
        {
            "o_orderkey": np.arange(n_o),
            "o_date": rng.integers(0, 100, n_o),
            "o_cust": rng.integers(0, 20, n_o),
        },
    )
    db.create_table(
        "lineitem",
        {"l_orderkey": "int64", "l_qty": "float64", "l_flag": "U1"},
        {
            "l_orderkey": rng.integers(0, n_o, n_l),
            "l_qty": rng.random(n_l) * 50,
            "l_flag": rng.choice(["A", "R", "N"], n_l),
        },
    )
    db.add_foreign_key("fk_lo", "lineitem", "l_orderkey",
                       "orders", "o_orderkey")
    return db


@pytest.fixture(scope="session")
def tpch_data():
    """Raw generated TPC-H columns (for generator invariants)."""
    from repro.workloads.tpch import generate_tpch

    return generate_tpch(sf=0.005, seed=11)


@pytest.fixture
def tpch_db() -> Database:
    """A freshly loaded small TPC-H database with all 22 templates."""
    db = Database()
    load_tpch(db, sf=0.005, seed=11)
    build_templates(db)
    return db


@pytest.fixture
def sky_db() -> Database:
    """A synthetic SkyServer database (its queries are ``SKY_SQL``)."""
    db = Database()
    load_skyserver(db, n_obj=20_000, seed=5)
    return db
