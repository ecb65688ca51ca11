"""From-scratch verification of a :class:`~repro.core.pool.RecyclePool`.

:func:`check_pool` recomputes every piece of derived pool state from the
entries alone and compares it with the incrementally maintained books.
It is the oracle of the test-suite (``RecyclePool.check_invariants`` and
``Recycler.check_invariants`` call it under the pool lock) and is never
on a query's path: O(pool size) plus one scan of the spill directory.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.pool import (
    RecycleEntry,
    RecyclePool,
    Signature,
    first_bat_token,
)
from repro.errors import RecyclerError
from repro.storage.spill import SpilledStub


def check_pool(pool: RecyclePool) -> None:
    """Raise :class:`RecyclerError` naming every discrepancy found.

    Checked: the cached result token and de-duplicated operands of every
    entry, the admission order of the signature index, the per-tier byte
    books, the token index, the consumer index
    and the dependency counts derived from it (with their resident /
    spilled split), the leaf and demotable sets, the subsumption buckets,
    and the disk-tier contract — every spilled entry has an image, every
    image belongs to a pooled entry (a resident one is listed in
    ``resident_images``), the store's bytes are the sum of its images and
    its directory holds exactly their files.  Caller holds the pool lock.
    """
    problems: List[str] = []
    entries = list(pool.by_sig.values())

    # --- identity caches set at admission ---
    for e in entries:
        if e.rtoken != e.result_token:
            problems.append(
                f"stale rtoken cache on {e.opname}: {e.rtoken} "
                f"vs {e.result_token}"
            )
        if len(set(e.arg_tokens)) != len(e.arg_tokens):
            problems.append(f"duplicate operand tokens on {e.opname}")
    seqs = [e.seq for e in entries]
    if seqs != sorted(seqs):
        problems.append("signature index out of admission order")

    # --- per-tier byte books ---
    for tier, recorded, spilled in (
            ("total_bytes", pool.total_bytes, False),
            ("spilled_bytes", pool.spilled_bytes, True)):
        true_bytes = sum(e.nbytes for e in entries
                         if e.is_spilled == spilled)
        if true_bytes != recorded:
            problems.append(
                f"{tier} drift: recorded {recorded}, "
                f"recomputed {true_bytes}"
            )

    # --- the disk tier: stubs, images, files ---
    for e in entries:
        if e.is_spilled != isinstance(e.value, SpilledStub):
            problems.append(
                f"{e.state} entry {e.opname} holds "
                f"{type(e.value).__name__}"
            )
    by_token = {e.rtoken: e for e in entries if e.rtoken is not None}
    spill = pool.spill
    images = set(spill._images) if spill is not None else set()
    for token in sorted(images - set(by_token)):
        problems.append(f"store holds token {token} with no pooled entry")
    for token, e in sorted(by_token.items()):
        if e.is_spilled and token not in images:
            problems.append(f"spilled token {token} has no image")
        listed = pool.resident_images.get(token)
        if (listed is e) != (token in images and not e.is_spilled):
            problems.append(
                f"resident-image index wrong for token {token}"
            )
    if set(pool.resident_images) - set(by_token):
        problems.append("resident-image index lists unpooled tokens")
    n_spilled = sum(e.is_spilled for e in entries)
    if pool.spilled_count != n_spilled:
        problems.append(
            f"spilled count drift: derived {pool.spilled_count}, "
            f"recomputed {n_spilled}"
        )
    if spill is not None:
        problems.extend(spill.check())

    # --- token index ---
    recorded_tokens = pool.by_token
    if set(by_token) != set(recorded_tokens):
        problems.append(
            f"token index drift: recorded {sorted(recorded_tokens)}, "
            f"recomputed {sorted(by_token)}"
        )
    else:
        for t, e in by_token.items():
            if recorded_tokens[t] is not e:
                problems.append(f"token {t} maps to a stale entry")

    # --- consumer index, and the dependency counts that mirror it ---
    true_consumers: Dict[int, Set[RecycleEntry]] = {}
    for e in entries:
        for t in e.arg_tokens:
            true_consumers.setdefault(t, set()).add(e)
    recorded_consumers = pool.consumers
    if true_consumers != recorded_consumers:
        drifted = [
            t for t in set(true_consumers) | set(recorded_consumers)
            if true_consumers.get(t) != recorded_consumers.get(t)
        ]
        problems.append(
            f"consumer index drift on tokens {sorted(drifted)[:8]}"
        )
    true_deps: Dict[Signature, int] = {}
    true_spilled_deps: Dict[Signature, int] = {}
    for e in entries:
        consumers = true_consumers.get(e.rtoken, ())
        true_deps[e.sig] = len(consumers)
        true_spilled_deps[e.sig] = sum(c.is_spilled for c in consumers)
        if e.dependents != true_deps[e.sig]:
            problems.append(
                f"dependents drift on {e.opname}: recorded "
                f"{e.dependents}, recomputed {true_deps[e.sig]}"
            )
        if e.spilled_dependents != true_spilled_deps[e.sig]:
            problems.append(
                f"spilled-dependents drift on {e.opname}: recorded "
                f"{e.spilled_dependents}, recomputed "
                f"{true_spilled_deps[e.sig]}"
            )

    # --- leaf and demotable sets ---
    for name, recorded, true in (
        ("leaf", set(pool.leaf_sigs),
         {sig for sig, n in true_deps.items() if n == 0}),
        ("demotable", set(pool.demotable_sigs),
         {e.sig for e in entries if not e.is_spilled
          and true_deps[e.sig] == true_spilled_deps[e.sig]}),
    ):
        if true != recorded:
            problems.append(
                f"{name} set drift: {len(recorded)} recorded vs "
                f"{len(true)} recomputed"
            )

    # --- subsumption buckets ---
    true_buckets: Dict[Tuple[str, int], List[RecycleEntry]] = {}
    for e in entries:
        first = first_bat_token(e.sig)
        if first is not None:
            true_buckets.setdefault((e.opname, first), []).append(e)
    recorded_buckets = pool.by_op_arg
    if set(true_buckets) != set(recorded_buckets):
        problems.append(
            "subsumption bucket keys drift: "
            f"{sorted(k[0] for k in recorded_buckets)} recorded vs "
            f"{sorted(k[0] for k in true_buckets)} recomputed"
        )
    else:
        for key, bucket in true_buckets.items():
            recorded = recorded_buckets[key]
            if len(recorded) != len(bucket) or \
                    any(e not in recorded for e in bucket):
                problems.append(f"bucket {key} contents drift")

    if problems:
        raise RecyclerError(
            "pool invariants violated:\n  " + "\n  ".join(problems)
        )
