"""The two-tier recycle pool: spill store, demotion, promotion.

Covers the disk tier end to end: byte-identical (de)serialisation with
lineage preserved, short/missing-file handling, the demote-on-eviction
and promote-on-hit paths through a real :class:`~repro.db.Database`,
invalidation of spilled entries (files must go), the disk-tier byte
quota, and pool invariants under concurrent sessions with spilling on.

Whether a victim is demoted depends on what the store has measured its
I/O to cost, so the Database-level tests freeze the store's injectable
clock: every write and load then measures zero seconds and every victim
is worth demoting, which is the regime these tests are about.  The rule
itself is covered in ``test_spill_policy.py``.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro import Database
from repro.bench import run_workload
from repro.errors import SpillError, SpillQuotaError
from repro.storage.bat import BAT, Dense
from repro.storage.spill import SpillStore, SpilledStub


# ---------------------------------------------------------------------------
# SpillStore unit level
# ---------------------------------------------------------------------------
def roundtrip(store: SpillStore, bat: BAT) -> BAT:
    store.write(bat)
    return store.load(bat.token)


def assert_same_bat(a: BAT, b: BAT) -> None:
    """Lineage equality plus byte-identical column values."""
    assert a.token == b.token
    assert a.sources == b.sources
    assert a.subset_of == b.subset_of
    assert a.subset_chain == b.subset_chain
    assert a.owned_nbytes == b.owned_nbytes
    assert a.tail_sorted == b.tail_sorted
    assert a.persistent_name == b.persistent_name
    for get in (BAT.head_values, BAT.tail_values):
        av, bv = get(a), get(b)
        assert av.dtype == bv.dtype
        assert av.tobytes() == bv.tobytes()


def test_roundtrip_preserves_lineage_and_values(tmp_path):
    store = SpillStore(str(tmp_path))
    parent = BAT.from_tail(np.arange(50))
    child = BAT.materialized(
        np.arange(7, dtype=np.int64),
        np.array([3.5, -1.0, 0.0, 2.25, 9.125, 7.75, 1e-9]),
        sources=frozenset({("fact", "v", 4), ("dim", "d_w", 1)}),
        subset_parent=parent,
        tail_sorted=False,
    )
    assert_same_bat(child, roundtrip(store, child))


def test_roundtrip_dense_head_and_string_tail(tmp_path):
    store = SpillStore(str(tmp_path))
    bat = BAT.materialized(
        Dense(12, 6),
        np.array(["AA", "BB", "CC", "DD", "EE", "FF"]),
        sources=frozenset({("t", "s", 2)}),
    )
    back = roundtrip(store, bat)
    assert back.head_dense and back.hseqbase == 12
    assert_same_bat(bat, back)


def test_roundtrip_datetime_tail(tmp_path):
    store = SpillStore(str(tmp_path))
    days = np.datetime64("2025-01-01") + np.arange(10).astype("timedelta64[D]")
    bat = BAT.materialized(np.arange(10, dtype=np.int64), days,
                           sources=frozenset({("sales", "sold_at", 1)}))
    assert_same_bat(bat, roundtrip(store, bat))


def test_object_dtype_is_not_spillable(tmp_path):
    store = SpillStore(str(tmp_path))
    bat = BAT.materialized(np.arange(2, dtype=np.int64),
                           np.array([{"a": 1}, {"b": 2}], dtype=object))
    assert not bat.spillable
    with pytest.raises(SpillError):
        store.write(bat)


def test_load_is_corruption_tolerant(tmp_path):
    store = SpillStore(str(tmp_path))
    bat = BAT.from_tail(np.arange(100, dtype=np.int64))
    store.write(bat)
    with open(store._path(bat.token), "wb") as f:
        f.write(b"a torn, short file")
    with pytest.raises(SpillError):
        store.load(bat.token)
    os.remove(store._path(bat.token))
    with pytest.raises(SpillError):
        store.load(bat.token)
    # Unknown tokens are an error, never a crash.
    with pytest.raises(SpillError):
        store.load(999_999)


#: A pid no live process can plausibly hold (beyond any pid_max).
DEAD_PID = 2_147_483_646


def test_recovery_reaps_dead_runs_only(tmp_path):
    live = SpillStore(str(tmp_path))
    bat = BAT.from_tail(np.arange(10))
    live.write(bat)
    # Simulate a crashed process's leftovers plus a torn loose file.
    dead_run = tmp_path / f"run-{DEAD_PID}-1"
    dead_run.mkdir()
    (dead_run / "bat-7").write_bytes(b"orphaned image")
    (tmp_path / "bat-9").write_bytes(b"loose file")
    fresh = SpillStore(str(tmp_path))
    assert fresh.recovered == 2          # the dead run dir + the loose file
    assert not dead_run.exists()
    assert len(fresh) == 0 and fresh.total_bytes == 0
    # The live store's run directory was left strictly alone.
    assert_same_bat(bat, live.load(bat.token))


def test_stores_sharing_a_directory_are_isolated(tmp_path):
    a = SpillStore(str(tmp_path))
    b = SpillStore(str(tmp_path))
    assert a.directory != b.directory
    bat_a = BAT.from_tail(np.arange(20, dtype=np.int64))
    bat_b = BAT.from_tail(np.arange(30, dtype=np.float64))
    a.write(bat_a)
    b.write(bat_b)
    assert_same_bat(bat_a, a.load(bat_a.token))
    assert_same_bat(bat_b, b.load(bat_b.token))
    a.clear()
    assert b.has(bat_b.token)  # clearing one store leaves the other alone
    assert a.check() == [] and b.check() == []


def test_quota_enforced_and_delete_reclaims(tmp_path):
    big = BAT.from_tail(np.arange(1000, dtype=np.int64))
    small = BAT.from_tail(np.arange(10, dtype=np.int64))
    store = SpillStore(str(tmp_path), limit_bytes=10_000)
    store.write(big)
    with pytest.raises(SpillQuotaError):
        store.write(BAT.from_tail(np.arange(1000, dtype=np.int64)))
    store.delete(big.token)
    store.write(small)  # fits after reclaim
    assert store.total_bytes <= 10_000
    assert store.check() == []


def test_stub_carries_matching_metadata():
    parent = BAT.from_tail(np.arange(5))
    bat = BAT.materialized(np.arange(3, dtype=np.int64), np.arange(3),
                           sources=frozenset({("t", "x", 1)}),
                           subset_parent=parent)
    stub = SpilledStub.of(bat)
    assert stub.token == bat.token
    assert stub.sources == bat.sources
    assert stub.row_subset_of(parent.token)
    assert len(stub) == len(bat)


# ---------------------------------------------------------------------------
# Database level: demote on eviction, promote on hit
# ---------------------------------------------------------------------------
N_ROWS = 40_000


def make_db(tmp_path, **kwargs) -> Database:
    # Subsumption is off by default in these tests: a narrower select
    # subsuming from a wider *spilled* one promotes it, which makes the
    # tier populations workload-dependent — the dedicated subsumption
    # test below covers that path explicitly.
    kwargs.setdefault("subsumption", False)
    rng = np.random.default_rng(3)
    db = Database(spill_dir=str(tmp_path / "spill"), **kwargs)
    db.recycler.spill.clock = lambda: 0.0  # I/O measures free: see above
    db.create_table(
        "t", {"x": "int64", "v": "float64"},
        {"x": rng.integers(0, 5000, N_ROWS),
         "v": np.round(rng.random(N_ROWS) * 100, 6)},
    )
    return db


#: Lower bounds whose select results are each well under the 400KB memory
#: limit (so they are admitted) but together far above it (so eviction
#: pressure is constant).  x is uniform on [0, 5000): lo=2500 keeps ~20k
#: of 40k rows (~320KB), lo=4750 about 2k (~32KB).
SELECT_BOUNDS = [2500 + 150 * i for i in range(16)]


def overflow_pool(db: Database, n: int = 12) -> None:
    """Distinct single-bound selects (stable bind-token signatures) whose
    results overflow a small memory tier."""
    for lo in SELECT_BOUNDS[:n]:
        db.execute(f"select count(*) from t where x >= {lo}")


def test_eviction_demotes_and_match_promotes(tmp_path):
    db = make_db(tmp_path, max_bytes=400_000)
    overflow_pool(db)
    totals = db.recycler.totals
    assert totals.demotions > 0
    assert db.recycler.spilled_entry_count > 0
    assert db.pool_spilled_bytes > 0
    assert db.pool_bytes <= 400_000
    db.recycler.check_invariants()

    # Matching a spilled signature promotes it and reports a disk-tier hit.
    r = db.execute(f"select count(*) from t where x >= {SELECT_BOUNDS[0]}")
    assert r.stats.promoted_hits > 0
    assert r.stats.promoted_hits <= r.stats.hits
    assert totals.promotions > 0 and totals.promoted_hits > 0
    db.recycler.check_invariants()


def test_promoted_results_stay_correct(tmp_path):
    db = make_db(tmp_path, max_bytes=400_000)
    naive = Database(recycle=False)
    rng = np.random.default_rng(3)
    naive.create_table(
        "t", {"x": "int64", "v": "float64"},
        {"x": rng.integers(0, 5000, N_ROWS),
         "v": np.round(rng.random(N_ROWS) * 100, 6)},
    )
    overflow_pool(db)
    # Second pass mixes promoted hits, memory hits and recomputation.
    for lo in SELECT_BOUNDS[:12]:
        q = f"select count(*), sum(v) from t where x >= {lo}"
        got = db.execute(q).value.rows()[0]
        want = naive.execute(q).value.rows()[0]
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], rel=1e-9)
    assert db.recycler.totals.promotions > 0
    db.recycler.check_invariants()


def test_invalidation_deletes_spilled_files(tmp_path):
    db = make_db(tmp_path, max_bytes=400_000)
    overflow_pool(db)
    store = db.recycler.spill
    assert len(store) > 0
    # Inserting into t staleness-invalidates every cached intermediate of
    # the table — spilled ones included, and their files with them.
    db.insert("t", {"x": np.array([17]), "v": np.array([0.25])})
    assert db.recycler.spilled_entry_count == 0
    assert db.pool_spilled_bytes == 0
    assert len(store) == 0
    assert [n for n in os.listdir(store.directory)
            if n.startswith("bat-")] == []
    db.recycler.check_invariants()


def test_drop_table_and_reset_clear_spill(tmp_path):
    db = make_db(tmp_path, max_bytes=400_000)
    overflow_pool(db)
    assert len(db.recycler.spill) > 0
    db.drop_table("t")
    assert len(db.recycler.spill) == 0
    db.recycler.check_invariants()

    db2 = make_db(tmp_path / "second", max_bytes=400_000)
    overflow_pool(db2)
    assert len(db2.recycler.spill) > 0
    db2.reset_recycler()
    assert len(db2.recycler.spill) == 0
    assert db2.pool_spilled_bytes == 0
    db2.recycler.check_invariants()


def test_spill_quota_triggers_disk_tier_eviction(tmp_path):
    db = make_db(tmp_path, max_bytes=400_000, spill_limit_bytes=600_000)
    overflow_pool(db, n=20)
    totals = db.recycler.totals
    store = db.recycler.spill
    assert totals.demotions > 0
    assert store.total_bytes <= 600_000
    # With ~300KB victims against a 600KB quota, demotions must have
    # reclaimed disk space by destroying older spilled entries.
    assert totals.spill_evictions > 0
    db.recycler.check_invariants()


def test_promotion_at_entry_limit_evicts_nothing(tmp_path):
    db = make_db(tmp_path, max_bytes=400_000)
    overflow_pool(db)
    pool = db.recycler.pool
    # Demote the *last* query's select by hand: its whole chain (markT,
    # reverse) is still pooled, so re-running that query hits every
    # instruction and admits nothing — the only pool change is the
    # promotion itself.
    last = next(
        e for e in pool.entries()
        if e.opname == "algebra.select" and not e.is_spilled
        and e.sig[2][1] == SELECT_BOUNDS[11]
    )
    with pool.all_locked():
        db.recycler.spill.write(last.value)
        pool.demote(last)
    # Clamp the entry limit to the current population: a promoted hit
    # adds no pool entry, so it must not force an eviction to "make
    # room" for an admission that is not happening.
    db.recycler.config.max_entries = db.pool_entries
    totals = db.recycler.totals
    evictions_before = totals.evictions
    r = db.execute(
        f"select count(*) from t where x >= {SELECT_BOUNDS[11]}"
    )
    assert r.stats.promoted_hits > 0
    assert r.stats.admissions == 0
    assert totals.evictions == evictions_before
    db.recycler.check_invariants()


def test_destroying_persistent_bind_keeps_spilled_dependents(tmp_path):
    db = make_db(tmp_path, max_bytes=400_000)
    overflow_pool(db)
    pool = db.recycler.pool
    spilled_before = db.recycler.spilled_entry_count
    assert spilled_before > 0
    bind = next(e for e in pool.entries() if e.opname == "sql.bind")
    assert bind.dependents > 0
    # Force-destroy the bind entry the way eviction's destroy path does:
    # its token is stable (catalogue bind cache), so the spilled selects
    # keyed on it must survive and still be matchable afterwards.
    with pool.all_locked():
        assert bind.token_is_stable
        pool.remove_set([bind])
    db.recycler.check_invariants()
    assert db.recycler.spilled_entry_count == spilled_before
    r = db.execute(f"select count(*) from t where x >= {SELECT_BOUNDS[0]}")
    assert r.stats.promoted_hits > 0  # spilled select still matched
    db.recycler.check_invariants()


def test_corrupt_spill_drops_stranded_thread(tmp_path):
    db = make_db(tmp_path, max_bytes=400_000)
    overflow_pool(db)
    pool = db.recycler.pool
    spilled = [e for e in pool.spilled_entries()
               if e.opname == "algebra.select"]
    assert spilled
    victim = spilled[0]
    store = db.recycler.spill
    with open(store._path(victim.result_token), "wb") as f:
        f.write(b"torn")
    lo = victim.sig[2][1]
    r = db.execute(f"select count(*) from t where x >= {lo}")
    # The corrupt entry was dropped, the query recomputed, and the fresh
    # result re-admitted resident under the same signature.
    assert r.stats.promoted_hits == 0
    assert db.recycler.totals.spill_errors == 1
    replacement = pool.lookup(victim.sig)
    assert replacement is not None and replacement is not victim
    assert not replacement.is_spilled
    db.recycler.check_invariants()


def test_subsumption_over_spilled_entry_promotes(tmp_path):
    db = make_db(tmp_path, max_bytes=400_000, subsumption=True)
    naive = Database(recycle=False)
    rng = np.random.default_rng(3)
    naive.create_table(
        "t", {"x": "int64", "v": "float64"},
        {"x": rng.integers(0, 5000, N_ROWS),
         "v": np.round(rng.random(N_ROWS) * 100, 6)},
    )
    overflow_pool(db)
    totals = db.recycler.totals
    assert totals.demotions > 0
    spilled = [e for e in db.recycler.pool.spilled_entries()
               if e.opname == "algebra.select"]
    assert spilled
    # A range nested just inside a *spilled* select subsumes from it:
    # the entry is promoted implicitly and the result must stay exact.
    lo = spilled[0].sig[2][1]  # the cached select's lower bound
    promotions_before = totals.promotions
    q = f"select count(*) from t where x >= {lo + 1}"
    assert db.execute(q).value.scalar() == naive.execute(q).value.scalar()
    assert totals.subsumed_hits > 0
    assert totals.promotions > promotions_before
    db.recycler.check_invariants()


def test_unlimited_memory_never_spills(tmp_path):
    db = make_db(tmp_path)
    overflow_pool(db)
    assert db.recycler.totals.demotions == 0
    assert len(db.recycler.spill) == 0
    db.recycler.check_invariants()


# ---------------------------------------------------------------------------
# Concurrency: the PR 1 invariants hold with spilling enabled
# ---------------------------------------------------------------------------
@pytest.mark.stress
def test_concurrent_sessions_with_spill_keep_invariants(tmp_path):
    db = make_db(tmp_path, max_bytes=400_000)
    rng = np.random.default_rng(11)
    items = []
    for _ in range(120):
        lo = SELECT_BOUNDS[int(rng.integers(0, len(SELECT_BOUNDS)))]
        items.append((f"select count(*) from t where x >= {lo}", None))

    stop = threading.Event()
    problems = []

    def poll_invariants():
        while not stop.is_set():
            try:
                db.recycler.check_invariants()
            except Exception as exc:  # pragma: no cover - failure path
                problems.append(exc)
                return
            stop.wait(0.002)

    poller = threading.Thread(target=poll_invariants)
    poller.start()
    try:
        result = run_workload(db, items, sessions=6,
                              collect_values=False)
    finally:
        stop.set()
        poller.join()
    assert not problems, problems[0]
    assert result.errors == []
    assert db.recycler.totals.demotions > 0
    db.recycler.check_invariants()
