"""Subsumption tests: range algebra, LIKE, Algorithm 2, and end-to-end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.core.subsumption import (
    Range,
    connects,
    covers,
    find_combined_cover,
    like_subsumes,
    merge,
    split_target_into_segments,
)


class TestRangeAlgebra:
    def test_covers_basic(self):
        assert covers(Range(0, 10), Range(2, 5))
        assert not covers(Range(2, 5), Range(0, 10))

    def test_covers_boundary_inclusivity(self):
        assert covers(Range(0, 10, True, True), Range(0, 10, True, True))
        assert covers(Range(0, 10, True, True), Range(0, 10, False, False))
        assert not covers(Range(0, 10, False, True), Range(0, 10, True, True))

    def test_unbounded_covers(self):
        assert covers(Range(None, None), Range(1, 2))
        assert covers(Range(None, 10), Range(None, 5))
        assert not covers(Range(0, 10), Range(None, 5))

    def test_connects_touching(self):
        assert connects(Range(0, 5, True, True), Range(5, 10, True, True))
        assert connects(Range(0, 5, True, False), Range(5, 10, True, True))
        assert not connects(Range(0, 5, True, False),
                            Range(5, 10, False, True))
        assert not connects(Range(0, 4), Range(5, 10))

    def test_merge(self):
        m = merge(Range(0, 5), Range(3, 10))
        assert (m.lo, m.hi) == (0, 10)
        m = merge(Range(None, 5), Range(3, 10))
        assert m.lo is None and m.hi == 10


class TestLikeSubsumption:
    @pytest.mark.parametrize("general,specific,expected", [
        ("abc%", "abcd%", True),
        ("abc%", "abc", True),
        ("abc%", "ab%", False),
        ("%abc", "xabc", True),
        ("%abc", "xabc%", False),
        ("%abc%", "%xabcy%", True),
        ("%abc%", "%ab%", False),
        ("%", "anything%", True),
        ("same%", "same%", True),
        ("a_c%", "a_cd%", False),  # wildcard body -> conservative no
    ])
    def test_cases(self, general, specific, expected):
        assert like_subsumes(general, specific) is expected

    def test_semantic_soundness_on_samples(self):
        """Whenever like_subsumes says yes, matching sets must nest."""
        from repro.mal.operators.selection import like_mask

        corpus = np.array([
            "abc", "abcd", "abcde", "xabc", "xabcy", "ab", "zzz",
            "special requests", "x special y", "",
        ])
        patterns = ["abc%", "abcd%", "%abc", "%abc%", "%special%", "%", "ab%"]
        for general in patterns:
            for specific in patterns:
                if like_subsumes(general, specific):
                    g = like_mask(corpus, general)
                    s = like_mask(corpus, specific)
                    assert not np.any(s & ~g), (general, specific)


class _FakeEntry:
    """Minimal stand-in carrying only what Algorithm 2 reads."""

    def __init__(self, tuples):
        self.tuples = tuples


class TestCombinedCover:
    def pieces(self, ranges_sizes):
        return [(rng, _FakeEntry(sz)) for rng, sz in ranges_sizes]

    def test_paper_example(self):
        """Pool = [3,7], [5,15], [6,40]; target [4,8] (§5.2)."""
        pieces = self.pieces([
            (Range(3, 7), 40), (Range(5, 15), 100), (Range(6, 40), 340),
        ])
        chosen = find_combined_cover(Range(4, 8), pieces, base_cost=10_000)
        assert chosen is not None
        ranges = sorted((p[0].lo, p[0].hi) for p in chosen)
        assert ranges == [(3, 7), (5, 15)]  # cheapest covering combination

    def test_prefers_cheapest_combination(self):
        pieces = self.pieces([
            (Range(0, 6), 10), (Range(4, 10), 10), (Range(0, 10), 500),
        ])
        chosen = find_combined_cover(Range(1, 9), pieces, base_cost=10_000)
        sizes = sorted(p[1].tuples for p in chosen)
        assert sizes == [10, 10]

    def test_returns_none_when_base_cheaper(self):
        pieces = self.pieces([(Range(0, 6), 500), (Range(4, 10), 500)])
        assert find_combined_cover(Range(1, 9), pieces, base_cost=100) is None

    def test_returns_none_on_gap(self):
        pieces = self.pieces([(Range(0, 3), 5), (Range(6, 10), 5)])
        assert find_combined_cover(Range(1, 9), pieces,
                                   base_cost=10_000) is None

    def test_three_piece_cover(self):
        pieces = self.pieces([
            (Range(0, 4), 5), (Range(3, 7), 5), (Range(6, 10), 5),
        ])
        chosen = find_combined_cover(Range(1, 9), pieces, base_cost=10_000)
        assert len(chosen) == 3

    def test_segments_are_disjoint_and_cover(self):
        target = Range(1, 9)
        chosen = [
            (Range(0, 4), _FakeEntry(5)),
            (Range(3, 7), _FakeEntry(5)),
            (Range(6, 10), _FakeEntry(5)),
        ]
        segments = split_target_into_segments(target, chosen)
        # Segments tile the target without overlap.
        assert segments[0][0].lo == 1
        for (a, _e1), (b, _e2) in zip(segments, segments[1:]):
            assert a.hi == b.lo
            assert a.hi_incl != b.lo_incl  # complementary boundaries
        assert segments[-1][0].hi == 9


class TestEndToEndSubsumption:
    def make_db(self):
        db = Database()
        rng = np.random.default_rng(4)
        db.create_table("t", {"v": "float64", "s": "U8"},
                        {"v": rng.random(30_000) * 100,
                         "s": rng.choice(["PROMO A", "PROMO B", "OTHER",
                                          "PROMOX"], 30_000)})
        return db

    def count_template(self, db, op_extra=""):
        q = db.builder("rq")
        lo, hi = q.param("lo"), q.param("hi")
        q.scan("t")
        q.filter_range("t", "v", lo=lo, hi=hi)
        q.select_scalar("n", q.agg_scalar("count"))
        return db.register_template(q.build())

    def test_single_range_subsumption_correct(self):
        db = self.make_db()
        self.count_template(db)
        db.run_template("rq", {"lo": 10.0, "hi": 60.0})
        r = db.run_template("rq", {"lo": 20.0, "hi": 50.0})
        assert r.stats.subsumed_hits >= 1
        naive = Database(recycle=False)
        v = db.catalog.table("t").column_array("v")
        assert r.value.scalar() == int(((v >= 20.0) & (v <= 50.0)).sum())

    def test_combined_range_subsumption_correct(self):
        db = self.make_db()
        self.count_template(db)
        db.run_template("rq", {"lo": 10.0, "hi": 40.0})
        db.run_template("rq", {"lo": 35.0, "hi": 70.0})
        r = db.run_template("rq", {"lo": 20.0, "hi": 60.0})
        assert db.recycler.totals.combined_hits >= 1
        v = db.catalog.table("t").column_array("v")
        assert r.value.scalar() == int(((v >= 20.0) & (v <= 60.0)).sum())

    def filter_template(self, db, name, add_filter):
        q = db.builder(name)
        arg = q.param("arg")
        q.scan("t")
        add_filter(q, arg)
        q.select_scalar("n", q.agg_scalar("count"))
        return db.register_template(q.build())

    def test_equality_and_in_subsumed_from_covering_range(self):
        db = self.make_db()
        self.count_template(db)
        self.filter_template(db, "eq",
                             lambda q, arg: q.filter_eq("t", "v", arg))
        self.filter_template(db, "inq",
                             lambda q, arg: q.filter_in("t", "v", arg))
        v = db.catalog.table("t").column_array("v")
        inside = [float(x) for x in v[(v > 20.0) & (v < 50.0)][:3]]
        db.run_template("rq", {"lo": 10.0, "hi": 60.0})

        r = db.run_template("eq", {"arg": inside[0]})
        assert r.stats.subsumed_hits == 1
        assert r.value.scalar() == int((v == inside[0]).sum())
        r = db.run_template("inq", {"arg": tuple(inside)})
        assert r.stats.subsumed_hits == 1
        assert r.value.scalar() == int(np.isin(v, inside).sum())

    def test_smallest_covering_range_is_reused(self):
        db = self.make_db()
        self.count_template(db)
        db.run_template("rq", {"lo": 0.0, "hi": 90.0})
        db.run_template("rq", {"lo": 10.0, "hi": 60.0})   # now pooled too

        def pooled_select(lo, hi):
            entry, = [e for e in db.recycler.pool.entries()
                      if e.opname == "algebra.select"
                      and e.sig[2:4] == (("c", lo), ("c", hi))]
            return entry

        wide, narrow = pooled_select(0.0, 90.0), pooled_select(10.0, 60.0)
        wide_before = wide.subsumed_reuses
        narrow_before = narrow.subsumed_reuses
        r = db.run_template("rq", {"lo": 20.0, "hi": 50.0})
        assert r.stats.subsumed_hits == 1
        assert narrow.subsumed_reuses == narrow_before + 1
        assert wide.subsumed_reuses == wide_before
        v = db.catalog.table("t").column_array("v")
        assert r.value.scalar() == int(((v >= 20.0) & (v <= 50.0)).sum())

    def test_subsumed_result_admitted_for_exact_reuse(self):
        db = self.make_db()
        self.count_template(db)
        db.run_template("rq", {"lo": 0.0, "hi": 90.0})
        db.run_template("rq", {"lo": 10.0, "hi": 20.0})   # subsumed
        r = db.run_template("rq", {"lo": 10.0, "hi": 20.0})  # exact now
        assert r.stats.exact_hits == r.stats.n_marked

    def test_like_subsumption_end_to_end(self):
        db = self.make_db()
        q = db.builder("lq")
        pat = q.param("pat")
        q.scan("t")
        q.filter_like("t", "s", pat)
        q.select_scalar("n", q.agg_scalar("count"))
        db.register_template(q.build())
        db.run_template("lq", {"pat": "PROMO%"})
        r = db.run_template("lq", {"pat": "PROMO A"})
        assert r.stats.subsumed_hits >= 1
        s = db.catalog.table("t").column_array("s")
        assert r.value.scalar() == int((s == "PROMO A").sum())

    def test_semijoin_subsumption_via_lineage(self):
        db = self.make_db()
        q = db.builder("sj")
        lo, hi = q.param("lo"), q.param("hi")
        q.scan("t")
        q.filter_range("t", "v", lo=lo, hi=hi)
        # A second base filter lowers to semijoin(bind(s), candidates).
        q.filter_eq("t", "s", "PROMO A")
        q.select_scalar("n", q.agg_scalar("count"))
        db.register_template(q.build())
        db.run_template("sj", {"lo": 10.0, "hi": 80.0})
        r = db.run_template("sj", {"lo": 20.0, "hi": 70.0})
        # The narrower candidate list is a lineage-subset of the wider one,
        # so the semijoin over bind(s) is answered by subsumption.
        assert r.stats.subsumed_hits >= 2  # range select + semijoin
        t = db.catalog.table("t")
        v = t.column_array("v")
        s = t.column_array("s")
        expected = int(((v >= 20.0) & (v <= 70.0) & (s == "PROMO A")).sum())
        assert r.value.scalar() == expected


@given(
    lo1=st.integers(-50, 50), w1=st.integers(0, 60),
    lo2=st.integers(-50, 50), w2=st.integers(0, 60),
    i1=st.booleans(), i2=st.booleans(), i3=st.booleans(), i4=st.booleans(),
)
@settings(max_examples=100)
def test_covers_agrees_with_set_semantics(lo1, w1, lo2, w2, i1, i2, i3, i4):
    outer = Range(lo1, lo1 + w1, i1, i2)
    inner = Range(lo2, lo2 + w2, i3, i4)
    xs = np.arange(-60, 130) / 1.0

    def member(r, x):
        ok_lo = x >= r.lo if r.lo_incl else x > r.lo
        ok_hi = x <= r.hi if r.hi_incl else x < r.hi
        return ok_lo and ok_hi

    inner_set = {x for x in xs if member(inner, x)}
    outer_set = {x for x in xs if member(outer, x)}
    if covers(outer, inner):
        assert inner_set <= outer_set
    # (non-covering cases may still nest on the integer sample grid when
    # the difference lies between grid points — only the implication above
    # must hold.)
