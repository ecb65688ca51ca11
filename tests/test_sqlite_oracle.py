"""An independent oracle: every SQL workload statement against sqlite3.

Every other differential test compares this engine with itself
(``recycle=False``), so a fault in the shared planner or operators
would pass them.  Here the engine's stored base columns are copied into
stdlib :mod:`sqlite3`, which shares no planner or operator code with
the engine, and each statement's answer is compared with sqlite's:

* the TPC-H ``SQL_STATEMENTS``, each rewritten by hand in sqlite's
  dialect (dates are ISO text, intervals are ``date(?, '+1 year')``);
* the SkyServer statements ``sky_doc``, ``sky_point`` and ``RANGE_SQL``
  verbatim.  ``sky_nearby`` ends in ``limit 1`` with no ORDER BY, so
  the engine's row must be one of sqlite's qualifying rows, and the two
  must agree on whether there is any;
* the inline random queries of :mod:`test_differential_random`.

Each runs on three engines: naive, keepall and a bounded pool with a
spill tier.  TPC-H refresh blocks and random DML run
between rounds of the same statements, and the sqlite copy is rebuilt
after each, so a stale pooled intermediate shows as a mismatch.  Floats
compare within a relative 1e-9; sqlite's NULL for an aggregate over no
rows equals the engine's NaN.  (Integer ``/`` differs between the two:
the engine divides exactly.  No statement here uses it.)
"""

from __future__ import annotations

import datetime
import math
import sqlite3
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np
import pytest
from test_differential_random import N_DIM, build_db, gen_query, gen_update

from repro import Database
from repro.workloads.skyserver import (
    RANGE_SQL,
    SkyQueryLog,
    combined_subsumption_batch,
    load_skyserver,
)
from repro.workloads.tpch import (
    SQL_STATEMENTS,
    RefreshStream,
    load_tpch,
    sql_instances,
)

TPCH_TABLES = ("region", "nation", "supplier", "customer", "part",
               "partsupp", "orders", "lineitem")
#: Join keys sqlite indexes, so its nested loops stay cheap.
TPCH_INDEXES = ("orders(o_orderkey)", "lineitem(l_orderkey)",
                "customer(c_custkey)", "supplier(s_suppkey)",
                "part(p_partkey)")
SKY_TABLES = ("photoobj", "dbobjects", "elredshift")
RANDOM_TABLES = ("fact", "dim")

#: ``SQL_STATEMENTS`` in sqlite's dialect, written by hand.
SQLITE_TPCH: Dict[str, str] = {
    "q01": (
        "select l_returnflag, l_linestatus, "
        "sum(l_quantity), sum(l_extendedprice), "
        "sum(l_extendedprice * (1 - l_discount)), "
        "avg(l_quantity), avg(l_extendedprice), count(*) "
        "from lineitem where l_shipdate <= :hi "
        "group by l_returnflag, l_linestatus "
        "order by l_returnflag, l_linestatus"
    ),
    "q03": (
        "select l_orderkey, "
        "sum(l_extendedprice * (1 - l_discount)) as revenue, "
        "o_orderdate, o_shippriority "
        "from customer join orders on c_custkey = o_custkey "
        "join lineitem on l_orderkey = o_orderkey "
        "where c_mktsegment = :segment "
        "and o_orderdate < :date and l_shipdate > :date "
        "group by l_orderkey, o_orderdate, o_shippriority "
        "order by revenue desc, o_orderdate limit 10"
    ),
    "q05": (
        "select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue "
        "from customer join orders on c_custkey = o_custkey "
        "join lineitem on l_orderkey = o_orderkey "
        "join supplier on l_suppkey = s_suppkey "
        "and c_nationkey = s_nationkey "
        "join nation on s_nationkey = n_nationkey "
        "join region on n_regionkey = r_regionkey "
        "where r_name = :region and o_orderdate >= :date "
        "and o_orderdate < date(:date, '+1 year') "
        "group by n_name order by revenue desc"
    ),
    "q06": (
        "select sum(l_extendedprice * l_discount) from lineitem "
        "where l_shipdate >= :date "
        "and l_shipdate < date(:date, '+1 year') "
        "and l_discount between :disc_lo and :disc_hi "
        "and l_quantity < :quantity"
    ),
    "q10": (
        "select c_custkey, c_name, "
        "sum(l_extendedprice * (1 - l_discount)) as revenue, c_acctbal "
        "from customer join orders on c_custkey = o_custkey "
        "join lineitem on l_orderkey = o_orderkey "
        "where o_orderdate >= :date "
        "and o_orderdate < date(:date, '+3 months') "
        "and l_returnflag = 'R' "
        "group by c_custkey, c_name, c_acctbal order by revenue desc"
    ),
    "q12": (
        "select l_shipmode, count(*) "
        "from orders join lineitem on o_orderkey = l_orderkey "
        "where l_shipmode in (:mode1, :mode2) "
        "and l_receiptdate >= :date "
        "and l_receiptdate < date(:date, '+1 year') "
        "group by l_shipmode order by l_shipmode"
    ),
    "q14": (
        "select sum(case when p_type like 'PROMO%' "
        "then l_extendedprice * (1 - l_discount) else 0 end) "
        "/ sum(l_extendedprice * (1 - l_discount)) "
        "from lineitem join part on l_partkey = p_partkey "
        "where l_shipdate >= :date "
        "and l_shipdate < date(:date, '+1 month')"
    ),
}

#: The three engines every statement runs on.
ENGINES: Dict[str, Dict[str, Any]] = {
    "naive": dict(recycle=False),
    "keepall": dict(),
    "bounded": dict(max_bytes=300_000, spill_limit_bytes=8_000_000),
}


def engine_kwargs(name: str, tmp_path) -> Dict[str, Any]:
    kwargs = dict(ENGINES[name])
    if name == "bounded":
        kwargs["spill_dir"] = str(tmp_path / "spill")
    return kwargs


# ---------------------------------------------------------------------------
# The sqlite copy and the comparison
# ---------------------------------------------------------------------------
_AFFINITY = {"i": "integer", "u": "integer", "b": "integer", "f": "real"}


def sqlite_copy(db: Database, tables: Iterable[str],
                indexes: Iterable[str] = ()) -> sqlite3.Connection:
    """A fresh in-memory sqlite database holding *db*'s base columns."""
    conn = sqlite3.connect(":memory:")
    conn.execute("pragma case_sensitive_like = on")
    for name in tables:
        table = db.catalog.table(name)
        names = table.column_names
        arrays = [table.column_array(c) for c in names]
        decls = ", ".join(f"{c} {_AFFINITY.get(a.dtype.kind, 'text')}"
                          for c, a in zip(names, arrays))
        conn.execute(f"create table {name} ({decls})")
        # datetime64[D] -> 'YYYY-MM-DD', which orders like the dates.
        columns = [(a.astype(str) if a.dtype.kind == "M" else a).tolist()
                   for a in arrays]
        marks = ", ".join("?" * len(names))
        conn.executemany(f"insert into {name} values ({marks})",
                         zip(*columns))
    for i, index in enumerate(indexes):
        conn.execute(f"create index ix{i} on {index}")
    return conn


def sqlite_params(params: Dict[str, Any]) -> Dict[str, Any]:
    return {k: str(v) if isinstance(v, np.datetime64)
            else v.item() if isinstance(v, np.generic) else v
            for k, v in params.items()}


def _cell(value: Any) -> Any:
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, float) and math.isnan(value):
        return None          # the engine's NaN for an empty aggregate
    return value


def _same_cell(got: Any, want: Any) -> bool:
    got, want = _cell(got), _cell(want)
    if got is None or want is None:
        return got is want
    if isinstance(got, float) or isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-9)
    return got == want


def _same_row(got: Tuple, want: Tuple) -> bool:
    return len(got) == len(want) and all(map(_same_cell, got, want))


def _sort_key(row: Tuple) -> Tuple:
    return tuple((c is None, c if c is not None else 0)
                 for c in map(_cell, row))


def same_rows(sql: str, got: List[Tuple], want: List[Tuple]) -> bool:
    """Row-for-row, in order when *sql* orders, else as multisets."""
    if len(got) != len(want):
        return False
    if "order by" not in sql:
        got, want = sorted(got, key=_sort_key), sorted(want, key=_sort_key)
    return all(map(_same_row, got, want))


class Oracle:
    """Runs statements on an engine and on its sqlite copy; keeps the
    mismatches."""

    def __init__(self, db: Database, tables: Iterable[str],
                 indexes: Iterable[str] = ()):
        self.db = db
        self.tables = tuple(tables)
        self.indexes = tuple(indexes)
        self.sqlite = None
        self.checked = 0
        self.mismatches: List[str] = []
        self.reload()

    def reload(self) -> None:
        """Copy the engine's current base columns (after DML)."""
        if self.sqlite is not None:
            self.sqlite.close()
        self.sqlite = sqlite_copy(self.db, self.tables, self.indexes)

    def _record(self, ok: bool, sql: str, params, got, want) -> None:
        self.checked += 1
        if not ok:
            self.mismatches.append(
                f"{sql} {params}: engine {got[:3]} vs sqlite {want[:3]}")

    def check(self, sql: str, params=None,
              sqlite_sql: Optional[str] = None) -> None:
        """*sql* on the engine equals *sqlite_sql* (default: *sql*)."""
        lite = sqlite_sql or sql
        got = self.db.execute(sql, params).value.rows()
        want = self.sqlite.execute(lite, sqlite_params(params or {}))
        want = want.fetchall()
        self._record(same_rows(lite, got, want), sql, params, got, want)

    def check_any_row(self, sql: str, params) -> int:
        """A ``limit 1`` statement without ORDER BY: the engine's row is
        one of the rows sqlite finds without the limit, and both find
        some or neither does.  Returns the engine's row count."""
        assert sql.endswith(" limit 1")
        got = self.db.execute(sql, params).value.rows()
        want = self.sqlite.execute(sql[:-len(" limit 1")],
                                   sqlite_params(params)).fetchall()
        ok = (len(got) == min(len(want), 1)
              and all(any(_same_row(g, w) for w in want) for g in got))
        self._record(ok, sql, params, got, want)
        return len(got)

    def assert_clean(self) -> None:
        assert not self.mismatches, (
            f"{len(self.mismatches)} of {self.checked} statements differ "
            f"from sqlite:\n" + "\n".join(self.mismatches[:5]))
        if self.db.recycler is not None:
            self.db.recycler.check_invariants()
        self.sqlite.close()


# ---------------------------------------------------------------------------
# Workload drivers (sizes are parameters: tier-1 and stress share them)
# ---------------------------------------------------------------------------
def run_tpch(engine: str, tmp_path, sf: float, rounds: int,
             per_statement: int) -> int:
    """The TPC-H statements, replayed after each of *rounds* refresh
    blocks; returns the number of statements checked."""
    db = Database(**engine_kwargs(engine, tmp_path))
    load_tpch(db, sf=sf, seed=11)
    oracle = Oracle(db, TPCH_TABLES, TPCH_INDEXES)
    batch = sql_instances(n_instances_each=per_statement, seed=5, sf=sf)
    refresh = RefreshStream(db, seed=99)
    for round_no in range(rounds + 1):
        if round_no:
            refresh.update_block()
            oracle.reload()
        for name, sql, params in batch:
            oracle.check(sql, params, SQLITE_TPCH[name])
    oracle.assert_clean()
    return oracle.checked


def run_skyserver(engine: str, tmp_path, n_obj: int, n_log: int) -> int:
    """A sampled SkyServer log plus the Fig. 15 range batches."""
    db = Database(**engine_kwargs(engine, tmp_path))
    load_skyserver(db, n_obj=n_obj, seed=5)
    oracle = Oracle(db, SKY_TABLES)
    spec = db.catalog.table("elredshift").column_array("specobjid")
    found = 0
    for qi in SkyQueryLog(spec, seed=8).sample(n_log):
        sql, params = qi.as_sql()
        if qi.template == "sky_nearby":
            found += oracle.check_any_row(sql, params)
        else:
            oracle.check(sql, params)
    assert found, "no cone search found an object: the catalogue is too small"
    for k in (2, 4):
        for rq in combined_subsumption_batch(4, k, seed=k):
            oracle.check(RANGE_SQL, {"lo": rq.lo, "hi": rq.hi})
    oracle.assert_clean()
    return oracle.checked


def run_random(engine: str, tmp_path, seeds: Iterable[int], rounds: int,
               per_round: int) -> int:
    """Random inline queries over random tables, with random DML
    between rounds."""
    checked = 0
    for seed in seeds:
        kwargs = engine_kwargs(engine, tmp_path)
        if "spill_dir" in kwargs:
            kwargs["spill_dir"] += f"-{seed}"
        db = build_db(seed, **kwargs)
        oracle = Oracle(db, RANDOM_TABLES)
        rng = np.random.default_rng(seed + 1000)
        for round_no in range(rounds):
            if round_no:
                for _ in range(int(rng.integers(1, 4))):
                    gen_update(rng, db)
                oracle.reload()
            for _ in range(per_round):
                oracle.check(gen_query(rng))
        oracle.assert_clean()
        checked += oracle.checked
    return checked


# ---------------------------------------------------------------------------
# Tier-1 sizes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_tpch_statements_match_sqlite(engine, tmp_path):
    checked = run_tpch(engine, tmp_path, sf=0.002, rounds=3,
                       per_statement=3)
    assert checked == 4 * 3 * len(SQL_STATEMENTS)


@pytest.mark.parametrize("engine", ENGINES)
def test_skyserver_statements_match_sqlite(engine, tmp_path):
    checked = run_skyserver(engine, tmp_path, n_obj=20_000, n_log=60)
    assert checked == 60 + 4 * (2 + 1) + 4 * (4 + 1)


@pytest.mark.parametrize("engine", ENGINES)
def test_random_queries_match_sqlite(engine, tmp_path):
    checked = run_random(engine, tmp_path, seeds=range(6), rounds=4,
                         per_round=15)
    assert checked == 6 * 4 * 15


def test_oracle_sees_a_wrong_answer():
    """The comparison is not vacuous: a row the sqlite copy lacks is a
    mismatch until the copy is reloaded."""
    db = build_db(3)
    oracle = Oracle(db, RANDOM_TABLES)
    sql = f"select count(*) from fact where k < {N_DIM // 2}"
    oracle.check(sql)
    assert not oracle.mismatches
    db.insert("fact", {"k": np.array([0]), "a": np.array([1]),
                       "v": np.array([1.0]), "s": np.array(["AA"])})
    oracle.check(sql)
    assert len(oracle.mismatches) == 1
    oracle.reload()
    oracle.check(sql)
    assert len(oracle.mismatches) == 1


# ---------------------------------------------------------------------------
# Stress sizes: TPC-H SF 0.01, ten refresh rounds, more seeds
# ---------------------------------------------------------------------------
@pytest.mark.stress
@pytest.mark.parametrize("engine", ENGINES)
def test_oracle_stress(engine, tmp_path):
    run_tpch(engine, tmp_path, sf=0.01, rounds=10, per_statement=2)
    run_skyserver(engine, tmp_path, n_obj=50_000, n_log=200)
    run_random(engine, tmp_path, seeds=range(100, 112), rounds=8,
               per_round=20)
