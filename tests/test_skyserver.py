"""SkyServer workload tests: catalogue, templates, log mix, micro-bench."""

import pytest

from repro.workloads.skyserver import (
    RANGE_SQL,
    SKY_SQL,
    SkyQueryLog,
    combined_subsumption_batch,
)
from repro.workloads.skyserver.generator import DOC_NAMES, RA_RANGE
from repro.core.subsumption import Range, covers

class TestGenerator:
    def test_row_counts(self, sky_db):
        assert sky_db.catalog.table("photoobj").nrows == 20_000
        assert sky_db.catalog.table("dbobjects").nrows == len(DOC_NAMES)
        spec = sky_db.catalog.table("elredshift")
        assert 0 < spec.nrows < 20_000

    def test_positions_in_patch(self, sky_db):
        p = sky_db.catalog.table("photoobj")
        ra = p.column_array("ra")
        dec = p.column_array("dec")
        assert ra.min() >= RA_RANGE[0] and ra.max() <= RA_RANGE[1]
        assert dec.min() >= -5.0 and dec.max() <= 65.0

    def test_spec_ids_join_photoobj(self, sky_db):
        p = sky_db.catalog.table("photoobj")
        e = sky_db.catalog.table("elredshift")
        photo_spec = set(p.column_array("specobjid").tolist()) - {0}
        assert set(e.column_array("specobjid").tolist()) <= photo_spec


def nearby_count_sql() -> str:
    """The count twin of ``SKY_SQL["sky_nearby"]``: the statement's own
    FROM and WHERE under ``count(*)``, without its ``limit 1``."""
    sql = SKY_SQL["sky_nearby"]
    body = sql[sql.index(" from photoobj "):]
    assert body.endswith(" limit 1")
    return "select count(*) as n" + body[:-len(" limit 1")]


class TestTemplates:
    def test_nearby_results_within_radius(self, sky_db):
        params = {"ra": 200.0, "dec": 30.0, "r": 2.0}
        r = sky_db.execute(SKY_SQL["sky_nearby"], params)
        if len(r.value):
            assert r.value.column("dist2")[0] <= 4.0

    def test_nearby_matches_numpy(self, sky_db):
        # The statement's own predicate, counted without its LIMIT.
        params = {"ra": 200.0, "dec": 30.0, "r": 3.0}
        got = sky_db.execute(nearby_count_sql(), params).value.scalar()
        p = sky_db.catalog.table("photoobj")
        ra_v = p.column_array("ra")
        dec_v = p.column_array("dec")
        mode = p.column_array("mode")
        d2 = (ra_v - 200.0) ** 2 + (dec_v - 30.0) ** 2
        assert got == int(((mode == 1) & (d2 <= 9.0)).sum())

    def test_doc_lookup(self, sky_db):
        r = sky_db.execute(SKY_SQL["sky_doc"], {"name": "PhotoPrimary"})
        assert len(r.value) == 1
        assert "PhotoPrimary" in r.value.column("description")[0]

    def test_point_query(self, sky_db):
        sid = int(
            sky_db.catalog.table("elredshift").column_array("specobjid")[0]
        )
        r = sky_db.execute(SKY_SQL["sky_point"], {"specobjid": sid})
        assert len(r.value) >= 1
        assert r.value.column("specobjid")[0] == sid

    def test_range_sql_is_one_two_sided_select_over_ra(self, sky_db):
        # Fig. 15's combined subsumption covers one two-sided range
        # select over the ``ra`` bind; a planner that split BETWEEN into
        # two one-sided selects would leave it nothing to combine.
        stmt = sky_db.prepare(RANGE_SQL)
        bound = stmt.bind({"lo": 190.0, "hi": 200.0})
        program = stmt.program
        selects = [ins for ins in program.instrs if "select" in ins.opname]
        assert [ins.opname for ins in selects] == ["algebra.select"]
        (select,) = selects
        operand, lo, hi, lo_incl, hi_incl = select.args
        (bind,) = [ins for ins in program.instrs
                   if ins.result == operand.index]
        assert bind.opname == "sql.bind"
        assert [a.value for a in bind.args] == ["photoobj", "ra"]
        by_var = {var: name for name, var in program.params.items()}
        assert bound[by_var[lo.index]] == 190.0
        assert bound[by_var[hi.index]] == 200.0
        assert (lo_incl.value, hi_incl.value) == (True, True)


class TestQueryLog:
    def test_mix_proportions(self, sky_db):
        spec = sky_db.catalog.table("elredshift").column_array("specobjid")
        log = SkyQueryLog(spec, seed=1)
        batch = log.sample(2000)
        from collections import Counter

        mix = Counter(q.template for q in batch)
        assert 0.55 < mix["sky_nearby"] / 2000 < 0.70
        assert 0.28 < mix["sky_doc"] / 2000 < 0.44
        assert mix["sky_point"] / 2000 < 0.06

    def test_spatial_params_from_overlapping_sets(self, sky_db):
        spec = sky_db.catalog.table("elredshift").column_array("specobjid")
        log = SkyQueryLog(spec, seed=1, subsumable_fraction=0.0)
        params = {
            (q.params["ra"], q.params["dec"], q.params["r"])
            for q in log.sample(500) if q.template == "sky_nearby"
        }
        assert params <= set(log.centers)

    def test_batch_runs_with_high_hit_ratio(self, sky_db):
        spec = sky_db.catalog.table("elredshift").column_array("specobjid")
        log = SkyQueryLog(spec, seed=2)
        hits = marked = 0
        for qi in log.sample(60):
            r = sky_db.execute(*qi.as_sql())
            hits += r.stats.hits
            marked += r.stats.n_marked
        assert hits / marked > 0.5

class TestCombinedSubsumptionBatch:
    def test_geometry_no_single_cover(self):
        for k in (2, 4):
            batch = combined_subsumption_batch(5, k, seed=3)
            per_seed = k + 1
            for i in range(5):
                block = batch[i * per_seed:(i + 1) * per_seed]
                seed_q = block[-1]
                assert seed_q.is_seed
                target = Range(seed_q.lo, seed_q.hi)
                union_lo = min(b.lo for b in block[:-1])
                union_hi = max(b.hi for b in block[:-1])
                # No covering query alone covers the seed...
                for b in block[:-1]:
                    assert not covers(Range(b.lo, b.hi), target)
                # ...but their union does.
                assert covers(Range(union_lo, union_hi), target)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            combined_subsumption_batch(1, 1)

    def test_batch_triggers_combined_subsumption(self, sky_db):
        batch = combined_subsumption_batch(6, 2, seed=4)
        ra = sky_db.catalog.table("photoobj").column_array("ra")
        for rq in batch:
            r = sky_db.execute(RANGE_SQL, {"lo": rq.lo, "hi": rq.hi})
            expected = int(((ra >= rq.lo) & (ra <= rq.hi)).sum())
            assert r.value.scalar() == expected
        assert sky_db.recycler.totals.combined_hits >= 4
