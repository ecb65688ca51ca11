"""The recycler: the paper's primary contribution.

* :mod:`repro.core.pool` — the recycle pool, a cache of intermediates with
  instruction lineage (§3.2, §4.1).
* :mod:`repro.core.recycler` — run-time support wrapping marked
  instructions with ``recycleEntry``/``recycleExit`` (Algorithm 1).
* :mod:`repro.core.admission` — KEEPALL / CREDIT / adaptive credit (§4.2).
* :mod:`repro.core.eviction` — LRU / Benefit / History policies with
  per-entry and knapsack memory variants (§4.3).
* :mod:`repro.core.subsumption` — singleton and combined instruction
  subsumption (§5).
* :mod:`repro.core.invalidation` / :mod:`repro.core.propagation` —
  update synchronisation (§6).
"""

from repro.core.pool import RecycleEntry, RecyclePool
from repro.core.admission import (
    AdaptiveCreditAdmission,
    AdmissionPolicy,
    CreditAdmission,
    KeepAllAdmission,
)
from repro.core.eviction import (
    BenefitEviction,
    EvictionPolicy,
    HistoryEviction,
    LruEviction,
)
from repro.core.recycler import Recycler, RecyclerConfig
from repro.core.stats import PoolReport, pool_report

__all__ = [
    "RecycleEntry",
    "RecyclePool",
    "AdmissionPolicy",
    "KeepAllAdmission",
    "CreditAdmission",
    "AdaptiveCreditAdmission",
    "EvictionPolicy",
    "LruEviction",
    "BenefitEviction",
    "HistoryEviction",
    "Recycler",
    "RecyclerConfig",
    "PoolReport",
    "pool_report",
]
