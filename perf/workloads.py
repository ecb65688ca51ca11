"""The seeded statement stream and the five configurations that play it.

Every workload plays the *same* stream (same ``--seed`` → same
``(sql, params)`` sequence) through a different configuration, so each
layer's tax is a subtraction between two named workloads.  The engine
only ever sees ``(sql, params)``; everything seeded lives here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional

import numpy as np

import repro
from repro.db import Database
from repro.workloads.skyserver.generator import load_skyserver
from repro.workloads.skyserver.workload import SKY_SQL, SkyQueryLog
from repro.workloads.tpch.generator import load_tpch
from repro.workloads.tpch.refresh import RefreshStream
from repro.workloads.tpch.statements import SQL_STATEMENTS, sql_instances

#: The fetch-heavy statement the TPC-H set lacks: ~800 rows x 6 columns,
#: so turning the result into tuples costs more than computing it.
LINES_BY_MONTH = (
    "select l_orderkey, l_partkey, l_quantity, l_extendedprice, "
    "l_shipdate, l_shipmode from lineitem "
    "where l_shipdate >= :date "
    "and l_shipdate < :date + interval '1' month"
)

#: Every statement name of the stream (the ``stmt.<name>.p50_s`` metrics).
STATEMENT_NAMES = tuple(SQL_STATEMENTS) + ("lines_by_month",) + tuple(SKY_SQL)
STATEMENT_SQL: Dict[str, str] = {
    **SQL_STATEMENTS, "lines_by_month": LINES_BY_MONTH, **SKY_SQL}
_SKY_NAME = {sql: name for name, sql in SKY_SQL.items()}

#: The dataset is fixed (it is the system's state, like dbgen's output);
#: ``--seed`` varies the inputs: the stream, the refresh blocks and the
#: warm-up instances.
TPCH_DATA_SEED = 42
SKY_DATA_SEED = 17

#: Statements generated per requested second of measurement — about
#: twice the fastest workload's rate, so no run exhausts its stream.
STREAM_RATE = 1500
#: ``tpch_volatile`` applies one RF1+RF2 block after every Nth statement.
REFRESH_EVERY = 25
#: ``tpch_net`` drives this many closed-loop connections (fixed, not
#: derived from ``nproc``; needs ``nproc >= 2``).
NET_CLIENTS = 2
#: Every Nth statement's rows are kept and compared with the shadow.
VERIFY_EVERY = 10


@dataclass(frozen=True)
class Sizes:
    """Data and pool sizes; ``FULL`` is the benchmark, ``SMOKE`` the
    tests' few-second miniature of it."""

    name: str
    sf: float
    sky_objects: int
    max_bytes: int
    spill_limit_bytes: int


#: SF 0.01 is ~60 k lineitem rows, ~10 MB of base columns.  KEEPALL's
#: pool ends near 700 MB on a 10 s run (it *fits*); the bounded pool
#: gets ~20 % of that, and a disk tier twice its size.
FULL = Sizes("full", sf=0.01, sky_objects=50_000,
             max_bytes=128 << 20, spill_limit_bytes=256 << 20)
SMOKE = Sizes("smoke", sf=0.002, sky_objects=5_000,
              max_bytes=1 << 20, spill_limit_bytes=2 << 20)
SIZES = {sizes.name: sizes for sizes in (FULL, SMOKE)}


class Statement(NamedTuple):
    name: str
    sql: str
    params: Dict[str, Any]


@dataclass(frozen=True)
class Workload:
    """One configuration of the engine under the shared stream."""

    name: str
    why: str
    recycle: bool = True
    bounded: bool = False       # max_bytes + spill tier from ``Sizes``
    volatile: bool = False      # refresh blocks between statements
    network: bool = False       # repro:// connections to a server


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "tpch_naive",
        "Recycling off, embedded cursor, one thread: bind, interpreter "
        "dispatch, numpy kernels and row materialisation do all the work; "
        "the bypass workload for recycler, pool and network changes.",
        recycle=False),
    Workload(
        "tpch_keepall",
        "Recycling on, unlimited pool that fits in memory: cold ramp, then "
        "exact and subsumed hits, so recycle_entry, signature hashing and "
        "interpreter dispatch dominate and kernels vanish."),
    Workload(
        "tpch_bounded",
        "Pool limited to ~20% of KEEPALL with a spill tier: the "
        "larger-than-cache workload where eviction sweeps, demotion, "
        "spill write/load and promotion do most of the work.",
        bounded=True),
    Workload(
        "tpch_volatile",
        "KEEPALL with one RF1+RF2 refresh block after every 25th "
        "statement: writes beside reads, so invalidation, delta stores, "
        "table write locks and re-admission are on the path.",
        volatile=True),
    Workload(
        "tpch_net",
        "KEEPALL behind the network server, two closed-loop connections "
        "with server-side prepared statements: adds frame encode/decode, "
        "row transport, asyncio hand-off and shared-pool sessions.",
        network=True),
)}


def sub_seed(seed: int, stream: int) -> int:
    """An independent seed per generator, all derived from ``--seed``."""
    return (seed * 1_000_003 + stream) % (2 ** 31)


def _month_start(rng: np.random.Generator) -> np.datetime64:
    """One of the 60 spec months 1993-01 .. 1997-12."""
    year, month = int(rng.integers(1993, 1998)), int(rng.integers(1, 13))
    return np.datetime64(f"{year}-{month:02d}-01")


def make_stream(seed: int, n: int, spec_ids: np.ndarray,
                sf: float) -> List[Statement]:
    """About *n* statements: 1/12 each of the seven TPC-H statements and
    ``lines_by_month``, 1/3 SkyServer log entries at the paper's
    62/36/2 mix, one seeded shuffle."""
    each = max(1, n // 12)
    out = [Statement(*inst) for inst in
           sql_instances(each, seed=sub_seed(seed, 0), sf=sf)]
    rng = np.random.default_rng(sub_seed(seed, 1))
    out += [Statement("lines_by_month", LINES_BY_MONTH,
                      {"date": _month_start(rng)}) for _ in range(each)]
    log = SkyQueryLog(spec_ids, seed=sub_seed(seed, 2))
    out += [Statement(_SKY_NAME[sql], sql, params)
            for sql, params in log.sample_sql(4 * each)]
    random.Random(sub_seed(seed, 3)).shuffle(out)
    return out


def warmup_statements(seed: int, spec_ids: np.ndarray,
                      sf: float) -> List[Statement]:
    """One instance of each of the eleven statements, from a seed the
    stream never uses (the paper's §7 preparation)."""
    warm = sub_seed(seed, 9)
    out = [Statement(*inst) for inst in sql_instances(1, seed=warm, sf=sf)]
    out.append(Statement("lines_by_month", LINES_BY_MONTH,
                         {"date": _month_start(np.random.default_rng(warm))}))
    for mix in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        (sql, params), = SkyQueryLog(spec_ids, seed=warm,
                                     mix=mix).sample_sql(1)
        out.append(Statement(_SKY_NAME[sql], sql, params))
    return out


def spec_ids_of(db: Database) -> np.ndarray:
    return db.catalog.table("elredshift").column_array("specobjid")


def sky_spec_ids(sizes: Sizes) -> np.ndarray:
    """The ``specobjid`` values point queries draw from, taken from a
    throwaway SkyServer load: the stream must be the same whether or not
    this process holds the engine."""
    db = Database(recycle=False)
    load_skyserver(db, n_obj=sizes.sky_objects, seed=SKY_DATA_SEED)
    return spec_ids_of(db).copy()


def build_engine(workload: Workload, seed: int, sizes: Sizes,
                 spill_dir: Optional[str] = None) -> Database:
    """Generate, load and prepare one engine: hot data, warm plan cache,
    cold pool.  This whole function is what ``setup_s`` times."""
    kwargs: Dict[str, Any] = {"recycle": workload.recycle}
    if workload.bounded:
        kwargs.update(max_bytes=sizes.max_bytes, spill_dir=spill_dir,
                      spill_limit_bytes=sizes.spill_limit_bytes)
    db = Database(**kwargs)
    load_tpch(db, sf=sizes.sf, seed=TPCH_DATA_SEED)
    load_skyserver(db, n_obj=sizes.sky_objects, seed=SKY_DATA_SEED)
    with repro.connect(database=db) as conn:
        cur = conn.cursor()
        for stmt in warmup_statements(seed, spec_ids_of(db), sizes.sf):
            cur.execute(stmt.sql, stmt.params)
            cur.fetchall()
    db.reset_recycler()
    return db


def refresh_stream(db: Database, seed: int) -> RefreshStream:
    """The seeded RF1/RF2 block generator for ``tpch_volatile`` (and for
    its shadow, which must apply the identical blocks)."""
    return RefreshStream(db, seed=sub_seed(seed, 4))
