"""The two-tier pool's policy and image contract.

* demote-vs-destroy is decided on the store's *measured* I/O cost
  (decision table over cost, reuse, size and measured write/load cost);
* an image is written once: promote → re-demote does no I/O, and the
  image goes exactly when its entry leaves the pool or the quota needs
  the room;
* a dropped producer takes exactly its transitive dependents with it
  (checked against a brute-force closure on random dependency DAGs);
* short, missing and failed-write files end in destroy-and-recompute,
  never a wrong row, a leaked file or a broken invariant.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro import Database
from repro.core.eviction import should_demote
from repro.core.pool import RecycleEntry, make_signature
from repro.errors import SpillError
from repro.mal.interpreter import ExecutionStats
from repro.mal.program import MalProgram
from repro.storage import spill as spill_mod
from repro.storage.bat import BAT
from repro.storage.spill import RESAMPLE_AFTER, SpillStore

N_ROWS = 40_000
SELECT_BOUNDS = [2500 + 150 * i for i in range(16)]


def table_data():
    rng = np.random.default_rng(3)
    return {"x": rng.integers(0, 5000, N_ROWS),
            "v": np.round(rng.random(N_ROWS) * 100, 6)}


def make_db(tmp_path, free_io=True, **kwargs) -> Database:
    kwargs.setdefault("subsumption", False)
    kwargs.setdefault("max_bytes", 400_000)
    db = Database(spill_dir=str(tmp_path / "spill"), **kwargs)
    if free_io:
        # Frozen store clock: I/O measures free, every victim demotes.
        db.recycler.spill.clock = lambda: 0.0
    db.create_table("t", {"x": "int64", "v": "float64"}, table_data())
    return db


def make_naive() -> Database:
    naive = Database(recycle=False)
    naive.create_table("t", {"x": "int64", "v": "float64"}, table_data())
    return naive


def query(lo: int) -> str:
    return f"select count(*), sum(v) from t where x >= {lo}"


def assert_matches_naive(db: Database, naive: Database, bounds) -> None:
    for lo in bounds:
        got = db.execute(query(lo)).value.rows()[0]
        want = naive.execute(query(lo)).value.rows()[0]
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], rel=1e-9)


def files(store: SpillStore):
    return sorted(os.listdir(store.directory))


def fake_invocation(db: Database):
    program = MalProgram("probe", [], nvars=0, params={})
    return db.recycler.begin_invocation(program, ExecutionStats(), db.clock)


def make_entry(opname, value, args=(), cost=1.0, **fields) -> RecycleEntry:
    return RecycleEntry(
        sig=make_signature(opname, args), opname=opname, kind="op",
        value=value, cost=cost, nbytes=value.owned_nbytes,
        tuples=len(value), template_key=(opname, 0), invocation_id=1,
        admitted_at=0.0, last_used=0.0,
        arg_tokens=tuple(a.token for a in args), **fields,
    )


# ---------------------------------------------------------------------------
# (c) should_demote: benefit against the measured round trip
# ---------------------------------------------------------------------------
class ScriptedClock:
    """A clock whose readings are laid out in advance."""

    def __init__(self):
        self.now = 0.0
        self.steps = []

    def __call__(self) -> float:
        if self.steps:
            self.now += self.steps.pop(0)
        return self.now


def measured_store(tmp_path, per_call, per_byte, load_call) -> SpillStore:
    """A store that has measured one write and one load at these costs."""
    store = SpillStore(str(tmp_path))
    clock = store.clock = ScriptedClock()
    bat = BAT.from_tail(np.arange(1000, dtype=np.int64))  # 8000 bytes
    # write reads: started, opened, moving end, end (close)
    clock.steps = [0.0, per_call / 2, per_byte * 8000, per_call / 2]
    store.write(bat)
    clock.steps = [0.0, load_call]                         # started, end
    store.load(bat.token)
    return store


def test_store_estimates_what_it_measured(tmp_path):
    store = measured_store(tmp_path, per_call=1e-4, per_byte=1e-9,
                           load_call=5e-5)
    assert store.write_cost.estimate(0) == pytest.approx(1e-4)
    assert store.write_cost.estimate(10**6) == pytest.approx(1e-4 + 1e-3)
    assert store.load_cost.estimate(10**6) == pytest.approx(5e-5)
    assert store.round_trip_cost(10**6) == pytest.approx(1.15e-3)
    # Nothing measured yet costs nothing: the first victim is demoted
    # and pays for the first sample.
    assert SpillStore(str(tmp_path / "fresh")).round_trip_cost(10**9) == 0.0


def test_stale_estimate_buys_a_fresh_sample(tmp_path):
    # A pessimistic estimate rejects every victim, so no write would ever
    # correct it: after pricing RESAMPLE_AFTER victims without a write it
    # counts as stale and prices victims at nothing until one is written.
    store = measured_store(tmp_path, per_call=1.0, per_byte=0.0,
                           load_call=0.0)
    for _ in range(RESAMPLE_AFTER - 1):     # measured_store priced none
        assert store.round_trip_cost(1000) == pytest.approx(1.0)
    assert store.round_trip_cost(1000) == pytest.approx(1.0)
    assert store.round_trip_cost(1000) == 0.0
    assert store.round_trip_cost(1000) == 0.0   # until a write happens
    store.clock.steps = [0.0, 0.0, 0.0, 0.0]    # a fast write this time
    store.write(BAT.from_tail(np.arange(10)))
    assert store.round_trip_cost(1000) == pytest.approx(0.5)  # the mean


#: (cost s, reuse_count, global_reuses, nbytes, spilled_dependents,
#:  measured (write per call, write per byte, load per call), demote?)
DECISIONS = [
    # never reused and cheap -> destroy (weight 0.1: benefit 2e-5 s)
    (2e-4, 0, 0, 100_000, 0, (1e-4, 1e-9, 5e-5), False),
    # never reused but dear: 0.1 * 5 ms beats a 0.25 ms round trip
    (5e-3, 0, 0, 100_000, 0, (1e-4, 1e-9, 5e-5), True),
    # reused once globally: weight k - 1 = 1, benefit = cost
    (2e-4, 1, 1, 100_000, 0, (1e-4, 1e-9, 5e-5), False),
    (3e-4, 1, 1, 100_000, 0, (1e-4, 1e-9, 5e-5), True),
    # only locally reused: still the token weight
    (3e-4, 5, 0, 100_000, 0, (1e-4, 1e-9, 5e-5), False),
    # often reused and cheap: weight 9 carries it
    (5e-5, 9, 9, 100_000, 0, (1e-4, 1e-9, 5e-5), True),
    # the same entry on a slow disk (1 ms per write) stays out
    (5e-5, 9, 9, 100_000, 0, (1e-3, 1e-9, 5e-5), False),
    # size matters through the measured per-byte cost
    (1e-3, 1, 1, 100_000, 0, (1e-4, 1e-8, 5e-5), False),
    (1e-3, 1, 1, 10_000, 0, (1e-4, 1e-8, 5e-5), True),
    # zero-byte view: childless -> destroy, over spilled children -> demote
    (1e-2, 9, 9, 0, 0, (1e-4, 1e-9, 5e-5), False),
    (1e-6, 0, 0, 0, 2, (1e-4, 1e-9, 5e-5), True),
    # a byte-carrier over spilled children follows them, whatever it costs
    (1e-6, 0, 0, 100_000, 1, (1e-3, 1e-8, 5e-5), True),
]


@pytest.mark.parametrize(
    "cost,reuses,global_reuses,nbytes,spilled_deps,measured,expected",
    DECISIONS)
def test_should_demote_decision_table(tmp_path, cost, reuses, global_reuses,
                                      nbytes, spilled_deps, measured,
                                      expected):
    store = measured_store(tmp_path, *measured)
    value = BAT.from_tail(np.arange(4))
    entry = make_entry("op", value, cost=cost, reuse_count=reuses,
                       global_reuses=global_reuses,
                       dependents=spilled_deps,
                       spilled_dependents=spilled_deps)
    entry.nbytes = nbytes
    round_trip = store.round_trip_cost(nbytes)
    assert should_demote(entry, round_trip) is expected


def test_stable_token_producers_are_never_demoted():
    # The catalogue returns the same BAT (same token) for nothing, and
    # the spilled dependents stay matchable without the entry.
    bind = make_entry("sql.bind", BAT.persistent(
        "t.x", np.arange(1000), sources=frozenset()), cost=10.0,
        reuse_count=9, global_reuses=9, dependents=3, spilled_dependents=3)
    assert bind.token_is_stable
    assert not should_demote(bind, 0.0)


def test_slow_disk_destroys_cheap_victims_end_to_end(tmp_path):
    # The store reads one second per clock call: every write "takes"
    # seconds, so after the first (unmeasured, hence free) demotion no
    # never-reused select is worth the round trip.
    db = make_db(tmp_path, free_io=False)
    ticks = iter(range(10**9))
    db.recycler.spill.clock = lambda: float(next(ticks))
    for lo in SELECT_BOUNDS[:12]:
        db.execute(query(lo))
    totals = db.recycler.totals
    assert totals.spill_writes == 1
    assert totals.evictions > 0
    assert db.pool_bytes <= 400_000
    assert_matches_naive(db, make_naive(), SELECT_BOUNDS[:12])
    db.recycler.check_invariants()


# ---------------------------------------------------------------------------
# (b) write once: the image survives promotion
# ---------------------------------------------------------------------------
def count_writes(store: SpillStore):
    calls = []
    write = store.write

    def counting(bat):
        calls.append(bat.token)
        return write(bat)

    store.write = counting
    return calls


def spilled_selects(db: Database):
    return [e for e in db.recycler.pool.spilled_entries()
            if e.opname == "algebra.select"]


def test_promote_then_redemote_writes_nothing(tmp_path):
    db = make_db(tmp_path)
    rec, store = db.recycler, db.recycler.spill
    for lo in SELECT_BOUNDS[:12]:
        db.execute(query(lo))
    rec.check_invariants()
    victim = spilled_selects(db)[0]
    token, lo = victim.result_token, victim.sig[2][1]

    # Promote: the image stays on disk and is indexed as resident.
    writes = count_writes(store)
    writes_before = rec.totals.spill_writes
    assert db.execute(query(lo)).stats.promoted_hits > 0
    assert not victim.is_spilled and store.has(token)
    assert rec.pool.resident_images[token] is victim
    assert os.path.exists(store._path(token))
    rec.check_invariants()

    # Push it out again: a stub swap, no write for this token.
    clean_before = rec.totals.clean_demotions
    for other in SELECT_BOUNDS[12:]:
        db.execute(query(other))
        rec.check_invariants()
    assert victim.is_spilled
    assert token not in writes
    assert rec.totals.clean_demotions > clean_before
    assert (rec.totals.spill_writes - writes_before) == len(writes)
    assert rec.totals.demotions == (rec.totals.spill_writes
                                    + rec.totals.clean_demotions)
    assert token not in rec.pool.resident_images

    # ... and the twice-demoted image still serves the right rows.
    assert_matches_naive(db, make_naive(), [lo])
    rec.check_invariants()


def test_image_leaves_with_its_entry(tmp_path):
    db = make_db(tmp_path)
    rec, store = db.recycler, db.recycler.spill
    for lo in SELECT_BOUNDS[:12]:
        db.execute(query(lo))
    victim = spilled_selects(db)[0]
    db.execute(query(victim.sig[2][1]))        # promote: resident + image
    assert rec.pool.resident_images
    rec.check_invariants()
    # Invalidation removes resident and spilled entries, images and all.
    db.insert("t", {"x": np.array([17]), "v": np.array([0.25])})
    assert len(store) == 0 and files(store) == []
    assert not rec.pool.resident_images
    rec.check_invariants()

    # Reset does the same.
    for lo in SELECT_BOUNDS[:12]:
        db.execute(query(lo))
    db.execute(query(spilled_selects(db)[0].sig[2][1]))
    assert len(store) > 0 and rec.pool.resident_images
    db.reset_recycler()
    assert len(store) == 0 and files(store) == []
    assert not rec.pool.resident_images and store.total_bytes == 0
    rec.check_invariants()


def test_quota_reclaim_drops_resident_images_first(tmp_path):
    db = make_db(tmp_path)
    rec, store = db.recycler, db.recycler.spill
    for lo in SELECT_BOUNDS[:8]:
        db.execute(query(lo))
    victim = spilled_selects(db)[0]
    db.execute(query(victim.sig[2][1]))        # resident, image kept
    token = victim.result_token
    assert rec.pool.resident_images[token] is victim
    rec.check_invariants()
    spill_evictions = rec.totals.spill_evictions

    # Fill the quota to the brim and ask for exactly what the promoted
    # thread's images hold: they are free to drop and go before any
    # spilled entry is destroyed.
    store.limit_bytes = store.total_bytes
    need = sum(store.image(t).size for t in rec.pool.resident_images)
    inv = fake_invocation(db)
    try:
        with rec.pool.all_locked():
            assert rec._reclaim_spill_room(inv, need, set())
        assert inv.stats.evictions == 0
    finally:
        rec.end_invocation(inv)
    assert not store.has(token) and not os.path.exists(store._path(token))
    assert not victim.is_spilled and victim.sig in rec.pool
    assert not rec.pool.resident_images
    assert rec.totals.spill_evictions == spill_evictions
    rec.check_invariants()

    # With no resident image left, reclaim destroys spilled leaves and
    # books them on the invocation that asked.
    store.limit_bytes = store.total_bytes
    inv = fake_invocation(db)
    try:
        with rec.pool.all_locked():
            assert rec._reclaim_spill_room(inv, 1, set())
        assert inv.stats.evictions >= 1
        assert (rec.totals.spill_evictions - spill_evictions
                == inv.stats.evictions)
    finally:
        rec.end_invocation(inv)
    assert store.total_bytes < store.limit_bytes
    rec.check_invariants()
    assert_matches_naive(db, make_naive(), SELECT_BOUNDS[:8])
    rec.check_invariants()


def test_cursor_stats_count_disk_tier_evictions(tmp_path):
    # A quota so small that nearly every demotion must first destroy a
    # spilled leaf: those evictions belong to the statement that caused
    # them, not only to the totals.
    db = make_db(tmp_path, spill_limit_bytes=600_000)
    evicted = 0
    for lo in SELECT_BOUNDS + SELECT_BOUNDS[:4]:
        evicted += db.execute(query(lo)).stats.evictions
    totals = db.recycler.totals
    assert totals.spill_evictions > 0
    assert evicted == totals.evictions
    db.recycler.check_invariants()


# ---------------------------------------------------------------------------
# (a) dropping a thread removes exactly the transitive dependents
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_drop_dependent_thread_matches_brute_force(tmp_path, seed):
    rng = np.random.default_rng(seed)
    db = Database(spill_dir=str(tmp_path / "spill"), pool_shards=4)
    rec, pool = db.recycler, db.recycler.pool
    bats, entries = [], []
    for i in range(40):
        if i < 3 or rng.random() < 0.1:
            # Stable-token producers (persistent binds) are members like
            # any other: only as the *victim* do they keep their thread.
            bat = BAT.persistent(f"t.c{i}", np.arange(8) + i,
                                 sources=frozenset())
        else:
            bat = BAT.from_tail(np.arange(8) + i)
        n_args = 0 if i == 0 else int(rng.integers(0, min(i, 3) + 1))
        args = tuple(bats[j] for j in
                     rng.choice(i, size=n_args, replace=False)) if n_args \
            else ()
        entry = make_entry(f"op{i}", bat, args)
        pool.add(entry)
        bats.append(bat)
        entries.append(entry)
    for entry in entries:
        if rng.random() < 0.4:
            rec.spill.write(entry.value)
            pool.demote(entry)
    rec.check_invariants()

    victim = entries[int(rng.integers(0, 10))]
    doomed = set()
    frontier = {victim.result_token}
    while frontier:                      # brute force: scan everything
        reached = {e for e in entries if e is not victim and e not in doomed
                   and frontier & set(e.arg_tokens)}
        doomed |= reached
        frontier = {e.result_token for e in reached}

    evictions = rec.totals.evictions
    inv = fake_invocation(db)
    try:
        with rec.pool.all_locked():
            rec._drop_dependent_thread(inv, victim)
        assert inv.stats.evictions == len(doomed)
    finally:
        rec.end_invocation(inv)
    assert rec.totals.evictions - evictions == len(doomed)
    survivors = {e.sig for e in pool.entries()}
    assert survivors == {e.sig for e in entries if e not in doomed}
    assert victim.sig in survivors and victim.dependents == 0
    assert all(not rec.spill.has(e.result_token) for e in doomed)
    rec.check_invariants()
    with rec.pool.all_locked():
        pool.remove_set([victim])
    rec.check_invariants()


# ---------------------------------------------------------------------------
# (d) short, missing and failed-write files
# ---------------------------------------------------------------------------
class _FailingFile:
    """A real file whose writes fail like a full disk."""

    def __init__(self, path, mode):
        self._f = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()
        return False

    def tell(self):
        return self._f.tell()

    def write(self, data):
        self._f.write(b"partial")
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_leaves_no_file_and_no_books(tmp_path, monkeypatch):
    store = SpillStore(str(tmp_path))
    bat = BAT.from_tail(np.arange(100, dtype=np.int64))
    monkeypatch.setattr(spill_mod, "open", _FailingFile, raising=False)
    with pytest.raises(SpillError):
        store.write(bat)
    assert files(store) == [] and len(store) == 0
    assert store.total_bytes == 0 and store.check() == []
    assert store.write_cost.calls == 0     # a failure is not a sample


def test_full_disk_falls_back_to_destroy(tmp_path, monkeypatch):
    db = make_db(tmp_path)
    monkeypatch.setattr(spill_mod, "open", _FailingFile, raising=False)
    for lo in SELECT_BOUNDS[:12]:
        db.execute(query(lo))
        db.recycler.check_invariants()
    totals = db.recycler.totals
    assert totals.demotions == 0 and totals.evictions > 0
    assert files(db.recycler.spill) == []
    assert db.pool_bytes <= 400_000
    assert_matches_naive(db, make_naive(), SELECT_BOUNDS[:12])
    db.recycler.check_invariants()


def test_short_and_missing_files_recompute(tmp_path):
    db = make_db(tmp_path)
    rec, store = db.recycler, db.recycler.spill
    for lo in SELECT_BOUNDS[:12]:
        db.execute(query(lo))
    short, missing = spilled_selects(db)[:2]
    with open(store._path(short.result_token), "r+b") as f:
        f.truncate(store.image(short.result_token).size // 2)
    os.remove(store._path(missing.result_token))
    for bad in (short, missing):
        with pytest.raises(SpillError):
            store.load(bad.result_token)

    bounds = [short.sig[2][1], missing.sig[2][1]]
    assert_matches_naive(db, make_naive(), bounds)
    assert rec.totals.spill_errors == 2
    for bad in (short, missing):
        # Destroyed with its image; the recomputed result replaced it.
        assert not store.has(bad.result_token)
        assert not os.path.exists(store._path(bad.result_token))
        assert rec.pool.lookup(bad.sig) is not bad
    rec.check_invariants()
    assert_matches_naive(db, make_naive(), SELECT_BOUNDS[:12])
    rec.check_invariants()
