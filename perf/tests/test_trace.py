"""Span-stack arithmetic on synthetic spans, and wrapper hygiene."""

from __future__ import annotations

import threading

import pytest

from perf import trace


@pytest.fixture
def ticking_clock(monkeypatch):
    """A clock that advances only when told to: exact arithmetic."""
    now = [0.0]
    monkeypatch.setattr(trace, "_clock", lambda: now[0])

    def advance(seconds: float) -> None:
        now[0] += seconds

    return advance


def test_self_time_is_duration_minus_children(ticking_clock):
    tracer = trace.Tracer()

    def leaf():
        ticking_clock(2.0)

    leaf = tracer.wrap("leaf", leaf)

    def parent():
        ticking_clock(1.0)
        leaf()
        leaf()
        ticking_clock(0.5)

    tracer.wrap("parent", parent)()
    totals = tracer.totals()
    assert totals["leaf"] == (2, 4.0, 4.0)
    assert totals["parent"] == (1, 5.5, 1.5)
    # Self times add up to the end-to-end time: nothing counted twice.
    assert sum(t[2] for t in totals.values()) == 5.5


def test_nesting_three_deep_and_same_name_recursion(ticking_clock):
    tracer = trace.Tracer()

    def inner():
        ticking_clock(1.0)

    inner = tracer.wrap("layer", inner)

    def outer():
        ticking_clock(1.0)
        inner()

    outer = tracer.wrap("layer", outer)

    def root():
        ticking_clock(0.25)
        outer()

    tracer.wrap("root", root)()
    totals = tracer.totals()
    assert totals["layer"] == (2, 3.0, 2.0)
    assert totals["root"] == (1, 2.25, 0.25)


def test_span_closes_and_charges_parent_when_the_call_raises(ticking_clock):
    tracer = trace.Tracer()

    def boom():
        ticking_clock(1.0)
        raise ValueError("x")

    boom = tracer.wrap("boom", boom)

    def root():
        with pytest.raises(ValueError):
            boom()
        ticking_clock(1.0)

    tracer.wrap("root", root)()
    assert tracer.totals()["boom"] == (1, 1.0, 1.0)
    assert tracer.totals()["root"] == (1, 2.0, 1.0)


def test_none_name_and_count_read_the_result(ticking_clock):
    tracer = trace.Tracer()
    lookup = tracer.wrap(
        "lookup.hit", lambda hit: "value" if hit else None,
        none_name="lookup.miss", count=lambda r: {"lookups": 1})
    lookup(True)
    lookup(False)
    lookup(False)
    totals = tracer.totals()
    assert totals["lookup.hit"][0] == 1
    assert totals["lookup.miss"][0] == 2
    assert tracer.counts() == {"lookups": 3}


def test_each_thread_has_its_own_stack():
    """A span open on one thread is not the parent of another thread's
    spans; client threads can be read out separately."""
    tracer = trace.Tracer()
    inside = threading.Event()
    release = threading.Event()

    def held():
        inside.set()
        assert release.wait(timeout=10)

    held = tracer.wrap("held", held)
    quick = tracer.wrap("quick", lambda: None)

    def holder():
        tracer.mark_client_thread()
        held()

    thread = threading.Thread(target=holder)
    thread.start()
    assert inside.wait(timeout=10)
    quick()                     # while "held" is open on the other thread
    release.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    totals = tracer.totals()
    # Had "quick" nested under "held", held's self time would be less
    # than its duration.
    assert totals["held"][1] == totals["held"][2]
    assert set(tracer.totals(client=True)) == {"held"}
    assert set(tracer.totals(client=False)) == {"quick"}


def test_raw_spans_kept_for_the_first_statements_only(ticking_clock):
    tracer = trace.Tracer()
    work = tracer.wrap("work", lambda: ticking_clock(1.0))
    stmt = tracer.wrap("stmt", work)
    for statement in (0, trace.RAW_SPAN_STATEMENTS):
        tracer.begin_statement(statement)
        stmt()
    raw = tracer.raw_spans()
    assert [(s["name"], s["statement"], s["depth"]) for s in raw] == [
        ("work", 0, 1), ("stmt", 0, 0)]
    assert raw[0]["end"] - raw[0]["start"] == 1.0


def test_wrappers_are_removed_on_exit():
    """Nothing leaks into other tests: every patched attribute and
    registry entry is the original object again."""
    from repro import db as db_mod
    from repro import dbapi
    from repro.core.recycler import Recycler
    from repro.mal import operators
    from repro.net import protocol

    watched = [
        (dbapi.Cursor, "execute"), (db_mod.Database, "insert"),
        (db_mod, "synchronize"), (Recycler, "recycle_entry"),
        (protocol, "encode_frame"), (protocol, "_recv_exactly"),
    ]
    before = [getattr(owner, attr) for owner, attr in watched]
    registry = dict(operators.OPERATORS)
    with trace.tracing():
        assert dbapi.Cursor.execute is not before[0]
        assert operators.OPERATORS["algebra.select"] is not \
            registry["algebra.select"]
    assert [getattr(owner, attr) for owner, attr in watched] == before
    assert operators.OPERATORS == registry
    assert all(operators.OPERATORS[k] is registry[k] for k in registry)
