"""Admission (§4.2) and eviction (§4.3) policy tests."""

import numpy as np
import pytest

from repro.core.admission import (
    AdaptiveCreditAdmission,
    CreditAdmission,
    KeepAllAdmission,
)
from repro.core.eviction import (
    BenefitEviction,
    HistoryEviction,
    LruEviction,
    benefit,
    history_benefit,
)
from repro.core.pool import RecycleEntry
from repro.storage.bat import BAT, Dense


_SIG_COUNTER = iter(range(10**9))


def entry(cost=1.0, nbytes=100, reuses=0, global_reuses=0, last_used=0.0,
          admitted=0.0, key=("t", 0)):
    value = BAT.materialized(Dense(0, 1), np.arange(1))
    e = RecycleEntry(
        sig=("op", ("c", next(_SIG_COUNTER))), opname="op", kind="select",
        value=value, cost=cost, nbytes=nbytes, tuples=1, template_key=key,
        invocation_id=1, admitted_at=admitted, last_used=last_used,
    )
    e.local_reuses = reuses - global_reuses
    e.global_reuses = global_reuses
    return e


class TestKeepAll:
    def test_always_admits(self):
        p = KeepAllAdmission()
        assert p.should_admit(("t", 0), 10**9, 10**9)


class TestCredit:
    def test_initial_balance(self):
        p = CreditAdmission(credits=3)
        assert p.credits_of(("t", 0)) == 3

    def test_admission_costs_one_credit(self):
        p = CreditAdmission(credits=2)
        key = ("t", 1)
        assert p.should_admit(key, 0, 0)
        p.on_admit(key)
        assert p.should_admit(key, 0, 0)
        p.on_admit(key)
        assert not p.should_admit(key, 0, 0)

    def test_local_reuse_returns_credit_immediately(self):
        p = CreditAdmission(credits=1)
        key = ("t", 2)
        p.on_admit(key)
        assert not p.should_admit(key, 0, 0)
        p.on_local_reuse(entry(key=key))
        assert p.should_admit(key, 0, 0)

    def test_global_reuse_returns_credit_on_eviction_only(self):
        p = CreditAdmission(credits=1)
        key = ("t", 3)
        p.on_admit(key)
        e = entry(key=key)
        p.on_global_reuse(e)
        e.global_reuses = 1
        assert not p.should_admit(key, 0, 0)
        p.on_evict(e)
        assert p.should_admit(key, 0, 0)

    def test_never_reused_eviction_returns_nothing(self):
        p = CreditAdmission(credits=1)
        key = ("t", 4)
        p.on_admit(key)
        p.on_evict(entry(key=key))  # no global reuse
        assert not p.should_admit(key, 0, 0)

    def test_invalid_credits(self):
        with pytest.raises(ValueError):
            CreditAdmission(credits=0)


class TestAdaptiveCredit:
    def test_behaves_like_credit_before_freeze(self):
        p = AdaptiveCreditAdmission(credits=2)
        p.on_invocation_start("q")
        key = ("q", 0)
        assert p.should_admit(key, 0, 0)

    def test_freeze_grants_unlimited_to_reused(self):
        p = AdaptiveCreditAdmission(credits=2)
        key = ("q", 0)
        for _ in range(2):
            p.on_invocation_start("q")
            p.on_admit(key)
        p.on_global_reuse(entry(key=key))
        # Third invocation freezes the template.
        p.on_invocation_start("q")
        for _ in range(10):
            assert p.should_admit(key, 0, 0)
            p.on_admit(key)

    def test_freeze_bars_never_reused(self):
        p = AdaptiveCreditAdmission(credits=2)
        key = ("q", 1)
        for _ in range(3):
            p.on_invocation_start("q")
        assert not p.should_admit(key, 0, 0)

    def test_templates_frozen_independently(self):
        p = AdaptiveCreditAdmission(credits=2)
        for _ in range(3):
            p.on_invocation_start("a")
        # Template "b" never invoked: still in credit phase.
        assert p.should_admit(("b", 0), 0, 0)


class TestBenefitFunction:
    def test_globally_reused_weight(self):
        e = entry(cost=2.0, reuses=3, global_reuses=1)
        assert benefit(e) == pytest.approx(2.0 * 3)  # k=4 -> weight 3

    def test_unreused_gets_token_weight(self):
        assert benefit(entry(cost=2.0)) == pytest.approx(0.2)

    def test_local_only_gets_token_weight(self):
        e = entry(cost=2.0, reuses=5, global_reuses=0)
        assert benefit(e) == pytest.approx(0.2)

    def test_history_divides_by_age(self):
        e = entry(cost=1.0, reuses=2, global_reuses=1, admitted=10.0)
        assert history_benefit(e, now=20.0) == pytest.approx(
            benefit(e) / 10.0
        )


class TestLru:
    def test_picks_oldest_first(self):
        old = entry(last_used=1.0)
        new = entry(last_used=9.0)
        victims = LruEviction().pick([new, old], 0, 1, now=10.0)
        assert victims == [old]

    def test_memory_need_takes_enough(self):
        entries = [entry(nbytes=100, last_used=float(i)) for i in range(5)]
        victims = LruEviction().pick(entries, 250, 0, now=10.0)
        assert len(victims) == 3
        assert [v.last_used for v in victims] == [0.0, 1.0, 2.0]


class TestBenefitEviction:
    def test_entry_mode_picks_min_benefit(self):
        cheap = entry(cost=0.1)
        valuable = entry(cost=5.0, reuses=4, global_reuses=2)
        victims = BenefitEviction().pick([valuable, cheap], 0, 1, now=1.0)
        assert victims == [cheap]

    def test_memory_mode_keeps_high_density(self):
        heavy_useless = entry(cost=0.01, nbytes=900)
        light_valuable = entry(cost=5.0, nbytes=100, reuses=3,
                               global_reuses=1)
        victims = BenefitEviction().pick(
            [heavy_useless, light_valuable], need_bytes=800,
            need_entries=0, now=1.0,
        )
        assert heavy_useless in victims
        assert light_valuable not in victims

    def test_memory_mode_evicts_all_when_capacity_insufficient(self):
        entries = [entry(nbytes=10) for _ in range(3)]
        victims = BenefitEviction().pick(entries, need_bytes=100,
                                         need_entries=0, now=1.0)
        assert len(victims) == 3

    def test_zero_size_leaves_survive_memory_pressure(self):
        view = entry(cost=1.0, nbytes=0)
        fat = entry(cost=1.0, nbytes=1000)
        victims = BenefitEviction().pick([view, fat], need_bytes=500,
                                         need_entries=0, now=1.0)
        assert view not in victims

    def test_history_mode_prefers_evicting_older(self):
        old = entry(cost=1.0, reuses=2, global_reuses=1, admitted=0.0)
        fresh = entry(cost=1.0, reuses=2, global_reuses=1, admitted=9.0)
        victims = HistoryEviction().pick([old, fresh], 0, 1, now=10.0)
        assert victims == [old]
