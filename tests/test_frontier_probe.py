"""The top-down pool probe books exactly what the bottom-up walk books.

A warm invocation is served from the pool when every marked instruction
maps to a resident entry found top-down: the frontier by lineage key,
the cones below it by signature tokens (``Recycler.serve_frontier``).
These tests hold it to the bottom-up walk of §3.4 — the reference engine
runs with ``serve_frontier`` patched to serve nothing — on the same data,
the same statements and the same deterministic clock, and require equal
answers, per-invocation statistics, lifetime totals, per-entry reuse
counts and pool order.  Then: a session evicting while another is
served, staleness across DROP/CREATE and after writes, and the indexed
eviction order against the policies' scans.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import shutil
import sys
import tempfile
import threading
from contextlib import contextmanager
from typing import Any, Dict, List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import BenefitEviction, CreditAdmission, Database, LruEviction
from repro.core.recycler import Recycler
from repro.storage.bat import BAT
from repro.workloads.skyserver import SkyQueryLog, load_skyserver
from repro.workloads.tpch import RefreshStream, load_tpch, sql_instances

SF = 0.001
SKY_OBJECTS = 1500

#: Unlimited; bytes-limited with a spill tier; entry-limited under BP;
#: CREDIT admission.
CONFIGS = ("keepall", "bytes_spill", "entries_bp", "credit")


def counter_clock():
    """A clock that ticks once per reading: every measured time is a
    whole number of ticks fixed by the call sequence, so two engines
    making the same calls record the same floats, and an engine that
    reads the clock more often elsewhere still measures the same
    costs."""
    ticks = itertools.count(1)
    return lambda: float(next(ticks))


def make_engine(config: str, spill_root: str) -> Database:
    kwargs: Dict[str, Any] = {
        "keepall": {},
        "bytes_spill": {"max_bytes": 200_000,
                        "spill_limit_bytes": 2_000_000},
        "entries_bp": {"max_entries": 60, "eviction": BenefitEviction()},
        "credit": {"admission": CreditAdmission(5)},
    }[config]
    if config == "bytes_spill":
        kwargs["spill_dir"] = tempfile.mkdtemp(dir=spill_root)
    db = Database(clock=counter_clock(), **kwargs)
    if config == "bytes_spill":
        db.recycler.spill.clock = lambda: 0.0
    load_tpch(db, sf=SF, seed=3)
    load_skyserver(db, n_obj=SKY_OBJECTS, seed=5)
    return db


def statement_pool(db: Database, seed: int, size: int
                   ) -> List[Tuple[str, Dict[str, Any]]]:
    """*size* statements drawn from one TPC-H instance of each statement
    and a sampled SkyServer log."""
    tpch = [(sql, params) for _n, sql, params
            in sql_instances(1, seed=seed, sf=SF)]
    spec = db.catalog.table("elredshift").column_array("specobjid")
    sky = SkyQueryLog(spec, seed=seed).sample_sql(6)
    return random.Random(seed).sample(tpch + sky, size)


def rows_of(value: Any) -> str:
    """An invocation's answer, compared by its exact rendering (NaN of
    an empty aggregate equals itself this way)."""
    return repr(value.rows() if hasattr(value, "rows") else value)


def pool_state(db: Database) -> List[Tuple]:
    return [(e.opname, e.seq, e.state, e.local_reuses, e.global_reuses,
             e.subsumed_reuses) for e in db.recycler.pool.entries()]


@contextmanager
def walk_only():
    """The reference: every invocation takes the bottom-up walk."""
    with mock.patch.object(Recycler, "serve_frontier",
                           lambda self, inv, stack: False):
        yield


@contextmanager
def counting_served(served: List[bool]):
    """Record, per invocation, whether it was served top-down."""
    original = Recycler.serve_frontier

    def serve(self, inv, stack):
        answer = original(self, inv, stack)
        served.append(answer)
        return answer

    with mock.patch.object(Recycler, "serve_frontier", serve):
        yield


def play_pair(config: str, seed: int, rounds: int, per_round: int,
              spill_root: str) -> List[bool]:
    """Play one stream on a served engine and a walk-only one, checking
    each invocation; returns the served flags of the served engine."""
    fast, ref = (make_engine(config, spill_root) for _ in range(2))
    pool = statement_pool(fast, seed, 5)
    refresh = [RefreshStream(db, seed=seed) for db in (fast, ref)]
    picks = random.Random(seed + 1)
    served: List[bool] = []
    for round_no in range(rounds):
        if round_no:
            for stream in refresh:
                stream.update_block()
        for _ in range(per_round):
            sql, params = picks.choice(pool)
            with counting_served(served):
                got = fast.execute(sql, params)
            with walk_only():
                want = ref.execute(sql, params)
            assert rows_of(got.value) == rows_of(want.value), sql
            assert got.stats.as_dict() == want.stats.as_dict(), sql
    assert (dataclasses.asdict(fast.recycler.totals)
            == dataclasses.asdict(ref.recycler.totals))
    assert pool_state(fast) == pool_state(ref)
    for db in (fast, ref):
        db.recycler.check_invariants()
        db.close()
    return served


@pytest.fixture
def spill_root():
    root = tempfile.mkdtemp(prefix="frontier-")
    yield root
    shutil.rmtree(root, ignore_errors=True)


@pytest.mark.parametrize("config", CONFIGS)
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 16), rounds=st.integers(1, 3),
       per_round=st.integers(4, 16))
def test_served_invocations_book_what_the_walk_books(config, seed, rounds,
                                                     per_round, spill_root):
    play_pair(config, seed, rounds, per_round, spill_root)


@pytest.mark.parametrize("config", CONFIGS)
def test_the_probe_serves_warm_statements(config, spill_root):
    served = play_pair(config, seed=7, rounds=2, per_round=20,
                       spill_root=spill_root)
    assert any(served), config


# ---------------------------------------------------------------------------
# Concurrency: one session evicts while the other is served
# ---------------------------------------------------------------------------
def test_sessions_evicting_while_others_are_served(spill_root):
    """Two sessions replay warm statements (served) while a third
    churns a bounded pool with a spill tier (evictions, demotions), with
    a short switch interval so threads interleave inside the probe."""
    db = Database(max_bytes=400_000, spill_dir=spill_root,
                  spill_limit_bytes=4_000_000)
    naive = Database(recycle=False)
    for engine in (db, naive):
        load_tpch(engine, sf=SF, seed=3)
    warm = [(sql, params) for _n, sql, params
            in sql_instances(1, seed=1, sf=SF)][:3]
    churn = [(sql, params) for _n, sql, params
             in sql_instances(6, seed=2, sf=SF)]
    expected = {i: rows_of(naive.execute(sql, params).value)
                for i, (sql, params) in enumerate(warm + churn)}
    booked_wrong: List[str] = []
    original_book = Recycler._book_served

    def checked_book(self, inv, entries, n_nonbind):
        # Under the pool lock: every entry booked is pooled and resident.
        for entry in entries:
            if (self.pool.by_sig.get(entry.sig) is not entry
                    or not isinstance(entry.value, BAT)):
                booked_wrong.append(entry.opname)
        original_book(self, inv, entries, n_nonbind)

    served: List[bool] = []
    errors: List[BaseException] = []
    wrong: List[int] = []

    def session(items, offset, repeats):
        try:
            with db.session() as s:
                for _ in range(repeats):
                    for i, (sql, params) in enumerate(items):
                        got = rows_of(s.execute(sql, params).value)
                        if got != expected[offset + i]:
                            wrong.append(offset + i)
        except Exception as exc:  # the thread's boundary: surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    with mock.patch.object(Recycler, "_book_served", checked_book), \
            counting_served(served):
        for sql, params in warm * 3:
            db.execute(sql, params)
        threads = [threading.Thread(target=session, args=(warm, 0, 30)),
                   threading.Thread(target=session, args=(warm, 0, 30)),
                   threading.Thread(target=session,
                                    args=(churn, len(warm), 2))]
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert not wrong and not booked_wrong
    assert any(served)
    assert db.recycler.totals.evictions + db.recycler.totals.demotions > 0
    db.recycler.check_invariants()
    db.close()


# ---------------------------------------------------------------------------
# Staleness
# ---------------------------------------------------------------------------
COUNT_SQL = "select count(*), sum(x) from t where x >= :lo and y < :hi"


def _served_runs(db: Database, sql: str, params: Dict[str, Any], n: int
                 ) -> Tuple[List[bool], str]:
    served: List[bool] = []
    with counting_served(served):
        answers = {rows_of(db.execute(sql, params).value) for _ in range(n)}
    assert len(answers) == 1
    return served, answers.pop()


def test_drop_and_recreate_never_serves_the_dropped_table():
    db = Database()
    rng = np.random.default_rng(4)
    params = {"lo": 10, "hi": 70}
    keys = []
    answers = []
    for _ in range(2):
        # Same name, same columns, same (zero) column versions; other rows.
        db.create_table("t", {"x": "int64", "y": "int64"},
                        {"x": rng.integers(0, 100, 500),
                         "y": rng.integers(0, 100, 500)})
        served, answer = _served_runs(db, COUNT_SQL, params, 4)
        assert served[-1], "warm statement not served"
        keys.append(set(db.recycler.pool.by_lineage))
        answers.append(answer)
        naive = Database(recycle=False)
        table = db.catalog.table("t")
        naive.create_table("t", {"x": "int64", "y": "int64"},
                           {c: table.column_array(c) for c in ("x", "y")})
        assert answer == rows_of(naive.execute(COUNT_SQL, params).value)
        db.drop_table("t")
    assert keys[0] and keys[1] and not keys[0] & keys[1]
    assert answers[0] != answers[1]


def test_an_insert_falls_back_only_where_it_wrote():
    db = Database()
    load_tpch(db, sf=SF, seed=3)
    load_skyserver(db, n_obj=SKY_OBJECTS, seed=5)
    (q06,) = [(sql, p) for name, sql, p in sql_instances(1, seed=4, sf=SF)
              if name == "q06"]
    spec = db.catalog.table("elredshift").column_array("specobjid")
    sky = SkyQueryLog(spec, seed=3).sample_sql(4)
    statements = [q06] + sky
    for _ in range(3):
        for sql, params in statements:
            db.execute(sql, params)
    served: List[bool] = []
    with counting_served(served):
        for sql, params in statements:
            db.execute(sql, params)
    assert all(served)

    RefreshStream(db, seed=1).rf1_insert()
    served.clear()
    with counting_served(served):
        stats = db.execute(*q06).stats
        for sql, params in sky:
            db.execute(sql, params)
        again = db.execute(*q06).stats
    assert served == [False] + [True] * len(sky) + [True]
    assert stats.admissions > 0 and stats.exact_hits < stats.n_marked
    assert again.exact_hits == again.n_marked


# ---------------------------------------------------------------------------
# Indexed eviction: the victims of the policies' scans
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("policy", [LruEviction, BenefitEviction])
@pytest.mark.parametrize("clock", ["ticking", "constant"])
def test_indexed_eviction_evicts_what_the_scan_evicts(policy, clock):
    """A constant clock makes every key tie, so admission order alone
    decides; a ticking one orders by last use or benefit."""
    engines = []
    for indexed in (True, False):
        eviction = policy()
        if not indexed:
            eviction.leaf_key = None   # the policy's pick() scans
        db = Database(max_entries=40, eviction=eviction,
                      clock=(counter_clock() if clock == "ticking"
                             else (lambda: 0.0)))
        load_tpch(db, sf=SF, seed=3)
        engines.append(db)
    batch = sql_instances(3, seed=9, sf=SF)
    for _name, sql, params in batch + batch[::2]:
        answers = {rows_of(db.execute(sql, params).value) for db in engines}
        assert len(answers) == 1
    indexed, scanned = engines
    assert indexed.recycler.pool.leaf_order is not None
    assert scanned.recycler.pool.leaf_order is None
    assert indexed.recycler.totals.evictions > 0
    totals = [{k: v for k, v in dataclasses.asdict(db.recycler.totals)
               .items() if isinstance(v, int)} for db in engines]
    assert totals[0] == totals[1]
    assert pool_state(indexed) == pool_state(scanned)
    for db in engines:
        db.recycler.check_invariants()
