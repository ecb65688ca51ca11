"""Eviction progress guarantee (§4.3) under degenerate leaf frontiers.

Byte-pressure victim selection (``EvictionPolicy._by_need_bytes``) can
return a full leaf set that frees zero bytes — every leaf a zero-byte
view — in which case the recycler's re-balance loop must not spin: a
round that neither frees memory nor shrinks the pool flips the sweep to
entry-count eviction, destroying leaves outright so the byte-carrying
parents underneath become evictable (see
``Recycler._ensure_capacity_locked``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database
from repro.core.eviction import LruEviction
from repro.core.pool import RecycleEntry, make_signature
from repro.mal.program import MalProgram
from repro.mal.interpreter import ExecutionStats
from repro.storage.bat import BAT

N_ROWS = 40_000  # one float64 select is ~320 KB materialised


def make_db(tmp_path=None, **kwargs):
    db = Database(
        eviction=LruEviction(),
        spill_dir=str(tmp_path) if tmp_path is not None else None,
        **kwargs,
    )
    rng = np.random.default_rng(11)
    db.create_table(
        "t", {"x": "float64"},
        {"x": rng.random(N_ROWS) * 5000.0},
    )
    return db


def build_view_chains(db, n=8):
    """Pool a set of select→markT→reverse threads.

    Each thread tops out in zero-byte views (markT, reverse) over the
    one byte-carrying select — exactly the leaf frontier the progress
    guarantee is about.
    """
    for i in range(n):
        db.execute(f"select count(*) from t where x >= {100 + 37 * i}")


def _fake_invocation(db):
    rec = db.recycler
    program = MalProgram("pressure", [], nvars=0, params={})
    return rec.begin_invocation(program, ExecutionStats(), db.clock)


# ---------------------------------------------------------------------------
# Integration level: a real pool whose leaves are all zero-byte views
# ---------------------------------------------------------------------------
def test_byte_pressure_over_view_frontier_terminates(tmp_path):
    db = make_db(tmp_path)
    build_view_chains(db)
    rec = db.recycler
    assert db.pool_bytes > 100_000  # the selects carry real bytes
    # Clamp the memory tier far below the current footprint and force a
    # re-balance: the sweep must terminate (no progress-less spinning)
    # with the limit enforced.
    rec.config.max_bytes = 50_000
    inv = _fake_invocation(db)
    try:
        with rec.pool.all_locked():
            rec._ensure_capacity_locked(inv, 0, incoming_entries=0)
    finally:
        rec.end_invocation(inv)
    assert db.pool_bytes <= 50_000
    assert rec.totals.demotions + rec.totals.evictions > 0
    rec.check_invariants()


def test_byte_pressure_without_spill_falls_back_to_destruction(tmp_path):
    # No disk tier: zero-byte leaves cannot be demoted away, so the only
    # road to the byte-carrying selects is destroying the view leaves —
    # the entry-count fallback.
    db = make_db(tmp_path=None)
    build_view_chains(db)
    rec = db.recycler
    before = db.pool_bytes
    assert before > 100_000
    rec.config.max_bytes = 50_000
    inv = _fake_invocation(db)
    try:
        with rec.pool.all_locked():
            rec._ensure_capacity_locked(inv, 0, incoming_entries=0)
    finally:
        rec.end_invocation(inv)
    assert db.pool_bytes <= 50_000
    assert rec.totals.evictions > 0
    rec.check_invariants()


def test_limit_pressure_during_execution_makes_progress(tmp_path):
    # The same frontier hit through the normal execution path: admitting
    # a fresh query's intermediates under a tight byte budget must both
    # terminate and keep the pool within the limit afterwards.
    db = make_db(tmp_path, max_bytes=400_000)
    build_view_chains(db, n=10)
    assert db.pool_bytes <= 400_000
    r = db.execute("select count(*) from t where x >= 4000")
    assert r.value is not None
    assert db.pool_bytes <= 400_000
    db.recycler.check_invariants()


# ---------------------------------------------------------------------------
# Unit level: hand-built all-views leaf frontier over spilled children
# ---------------------------------------------------------------------------
def _admit_raw(rec, opname, value, cost, args=()):
    """Admit a hand-built entry, wiring dependencies via arg tokens."""
    sig = make_signature(opname, args)
    now = 0.0
    rec.pool.add(RecycleEntry(
        sig=sig,
        opname=opname,
        kind="op",
        value=value,
        cost=cost,
        nbytes=value.owned_nbytes,
        tuples=len(value),
        template_key=(opname, 0),
        invocation_id=1,
        admitted_at=now,
        last_used=now,
        arg_tokens=tuple(a.token for a in args if isinstance(a, BAT)),
    ))
    return sig


def test_stalled_round_flips_to_entry_count_eviction(tmp_path):
    """Construct the degenerate frontier directly.

    One spilled byte-carrier whose only dependents are resident
    zero-byte views: byte-oriented selection demotes/destroys nothing
    (the views own no memory; the carrier is already on disk), so
    without the no-progress fallback the sweep could never reach — or
    would spin before reaching — the protected-bytes break.  With it,
    the views are destroyed entry-by-entry and the sweep ends with the
    frontier drained.
    """
    db = make_db(tmp_path)
    rec = db.recycler
    pool = rec.pool

    base = BAT.from_tail(np.arange(N_ROWS, dtype=np.float64))
    carrier_sig = _admit_raw(rec, "test.carrier", base, cost=1.0)
    carrier = pool.lookup(carrier_sig)
    views = []
    parent = base
    for i in range(3):
        v = BAT.view(parent.head, parent.tail, sources=parent.sources,
                     subset_parent=parent)
        assert v.owned_nbytes == 0
        _admit_raw(rec, f"test.view{i}", v, cost=0.001, args=(parent,))
        views.append(v)
        parent = v
    # Demote the carrier: the frontier is now zero-byte resident views
    # over a spilled child.
    with rec.pool.all_locked():
        rec.spill.write(carrier.value)
        pool.demote(carrier)
    assert carrier.is_spilled
    assert all(not pool.lookup(make_signature(f"test.view{i}",
                                              (views[i - 1] if i else base,))
                               ).is_spilled for i in range(3))
    assert pool.total_bytes == 0  # nothing resident owns memory

    entries_before = len(pool)
    rec.config.max_entries = 1
    inv = _fake_invocation(db)
    try:
        with rec.pool.all_locked():
            rec._ensure_capacity_locked(inv, 0, incoming_entries=0)
    finally:
        rec.end_invocation(inv)
    # The view chain was destroyed leaf-by-leaf (entry-count eviction);
    # only the allowed single entry survives.
    assert len(pool) <= 1
    assert len(pool) < entries_before
    rec.check_invariants()


def test_by_need_bytes_full_set_frees_nothing():
    """The policy-level degenerate case the recycler must tolerate."""
    heads = np.arange(4, dtype=np.int64)
    entries = []
    for i in range(3):
        v = BAT.view(heads, heads, sources=frozenset())
        entries.append(RecycleEntry(
            sig=("v", i), opname="v", kind="op", value=v,
            cost=0.1, nbytes=0, tuples=4, template_key=("v", i),
            invocation_id=1, admitted_at=float(i), last_used=float(i),
        ))
    picked = LruEviction().pick(entries, need_bytes=1000,
                                need_entries=0, now=9.0)
    assert picked == entries  # the whole frontier...
    assert sum(e.nbytes for e in picked) == 0  # ...frees zero bytes
