"""Parameterized workload statements (TPC-H + SkyServer, DB-API path).

Validates the statement emitters the generators grew for the DB-API
front door: every parameterized statement must (a) plan and run, (b)
agree row-for-row with its literal-inlined twin, and (c) produce the
*same recycler hits* as the twin — placeholders and inline literals are
instances of one template, so the pool cannot tell them apart.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.bench import fresh_tpch_db, run_workload
from repro.workloads.skyserver import (
    SkyQueryLog,
    build_sky_templates,
    load_skyserver,
)
from repro.workloads.tpch import (
    SQL_STATEMENTS,
    SQL_TEMPLATES,
    sql_instances,
    statement_params,
    ParamGenerator,
)

SF = 0.005


def inline_literals(sql: str, params: dict) -> str:
    """The literal-inlined twin of a ``:name`` statement."""
    out = sql
    # Longest names first so :date does not clobber :date_hi-style keys.
    for name in sorted(params, key=len, reverse=True):
        value = params[name]
        if isinstance(value, str):
            text = "'" + value.replace("'", "''") + "'"
        elif isinstance(value, np.datetime64):
            text = f"date '{value}'"
        else:
            text = repr(value)
        out = out.replace(f":{name}", text)
    return out


@pytest.fixture(scope="module")
def tpch():
    db = fresh_tpch_db(sf=SF)
    with repro.connect(database=db) as conn:
        yield conn


@pytest.mark.parametrize("name", SQL_TEMPLATES)
def test_statement_matches_inline_twin(tpch, name):
    pg = ParamGenerator(seed=5, sf=SF)
    params = statement_params(name, pg.params_for(name))
    sql = SQL_STATEMENTS[name]
    cur = tpch.cursor()
    cur.execute(sql, params)
    via_params = cur.fetchall()
    twin = tpch.database.execute(inline_literals(sql, params))
    assert cur.result.names == twin.value.names
    rows = twin.value.rows()
    assert len(via_params) == len(rows)
    for g, e in zip(via_params, rows):
        for gv, ev in zip(g, e):
            if isinstance(ev, float):
                if np.isnan(ev):
                    assert np.isnan(gv)
                else:
                    assert gv == pytest.approx(ev)
            else:
                assert gv == ev


def test_placeholder_hits_equal_inline_hits():
    """Acceptance: a parameterized stream earns exactly the hits its
    literal-inlined twin earns (fresh engines, same instances)."""
    pg = ParamGenerator(seed=9, sf=SF)
    draws = [pg.params_for("q06") for _ in range(6)]
    draws += draws[:3]                      # exact repeats too
    sql = SQL_STATEMENTS["q06"]
    instances = [statement_params("q06", d) for d in draws]

    db_param = fresh_tpch_db(sf=SF)
    cur = repro.connect(database=db_param).cursor()
    hits_param = [cur.execute(sql, p).stats.hits for p in instances]

    db_inline = fresh_tpch_db(sf=SF)
    hits_inline = [
        db_inline.execute(inline_literals(sql, p)).stats.hits
        for p in instances
    ]
    assert hits_param == hits_inline
    assert sum(hits_param) > 0


def test_sql_instances_compile_once_per_template(tpch):
    db = tpch.database
    before = db.compile_cache_stats
    batch = sql_instances(n_instances_each=4, seed=123, sf=SF)
    result = run_workload(db, [(s, p) for _n, s, p in batch])
    after = db.compile_cache_stats
    assert len(result.records) == 4 * len(SQL_TEMPLATES)
    # Already-prepared templates (from earlier tests in this module)
    # cost nothing; fresh ones compile exactly once each.
    assert after.misses - before.misses <= len(SQL_TEMPLATES)
    assert result.compile_hits >= len(result.records) - len(SQL_TEMPLATES)
    assert result.hit_ratio > 0             # recycler reuse across instances


class TestSkyServerStatements:
    @pytest.fixture(scope="class")
    def sky(self):
        db = repro.Database()
        load_skyserver(db, n_obj=20_000, seed=17)
        build_sky_templates(db)
        with repro.connect(database=db) as conn:
            yield conn

    def test_as_sql_matches_builder_template(self, sky):
        db = sky.database
        spec = db.catalog.table("elredshift").column_array("specobjid")
        log = SkyQueryLog(spec, seed=5)
        cur = sky.cursor()
        for qi in log.sample(40):
            via_template = db.run_template(qi.template, qi.params)
            sql, params = qi.as_sql()
            cur.execute(sql, params)
            assert cur.result.names == via_template.value.names
            assert cur.fetchall() == via_template.value.rows()

    def test_sample_sql_compiles_three_plans(self, sky):
        db = sky.database
        spec = db.catalog.table("elredshift").column_array("specobjid")
        log = SkyQueryLog(spec, seed=99)
        before = db.compile_cache_stats
        result = run_workload(db, log.sample_sql(80))
        after = db.compile_cache_stats
        assert len(result.records) == 80
        # One plan per template class at most (earlier tests may have
        # compiled them already).
        assert after.misses - before.misses <= 3
        assert result.compile_hit_ratio > 0.9
