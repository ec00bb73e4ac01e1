"""Aggregation helpers over migration telemetry."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

from .mechanism import MigrationManager, MigrationRecord

__all__ = [
    "collect_records",
    "mean",
    "percentile",
    "summarize_records",
    "records_by_reason",
    "refusal_reasons",
    "rollback_stats",
]


def collect_records(managers: Iterable[MigrationManager]) -> List[MigrationRecord]:
    """All records across a cluster, in start-time order."""
    records: List[MigrationRecord] = []
    for manager in managers:
        records.extend(manager.records)
    records.sort(key=lambda r: r.started)
    return records


def records_by_reason(records: Iterable[MigrationRecord]) -> Dict[str, List[MigrationRecord]]:
    grouped: Dict[str, List[MigrationRecord]] = {}
    for record in records:
        grouped.setdefault(record.reason, []).append(record)
    return grouped


def refusal_reasons(records: Iterable[MigrationRecord]) -> Dict[str, int]:
    """How often each refusal reason occurred (``detail['refusal']``).

    Records refused without a recorded reason count under
    ``"unspecified"``; completed migrations are ignored.
    """
    reasons: Dict[str, int] = {}
    for record in records:
        if not record.refused:
            continue
        why = record.detail.get("refusal", "unspecified")
        reasons[why] = reasons.get(why, 0) + 1
    return reasons


def rollback_stats(managers: Iterable[MigrationManager]) -> Dict[str, int]:
    """Cluster-wide undo-log health: transaction counters plus the
    ``rollback_incomplete`` tally (aborts whose inline undo replay
    exhausted its retries and was handed to a background repair task).
    """
    totals = {
        "begun": 0,
        "committed": 0,
        "aborted": 0,
        "recovered": 0,
        "rollback_incomplete": 0,
        "rollback_pending": 0,
        "eviction_failures": 0,
    }
    for manager in managers:
        journal = manager.journal
        totals["begun"] += journal.begun
        totals["committed"] += journal.committed
        totals["aborted"] += journal.aborted
        totals["recovered"] += journal.recovered
        totals["rollback_incomplete"] += manager.rollback_incomplete
        totals["rollback_pending"] += sum(
            1 for txn in journal.txns.values() if txn.rollback_pending
        )
        totals["eviction_failures"] += manager.eviction_failures
    return totals


def _pairwise_sum(values: Sequence[float]) -> float:
    """numpy's float64 ``add.reduce``: eight running sums up to 128
    items, halving at a multiple of eight above that."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        stop = n - n % 8
        acc = list(values[:8])
        for j in range(8):
            for value in values[j + 8 : stop : 8]:
                acc[j] += value
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
            (acc[4] + acc[5]) + (acc[6] + acc[7])
        )
        for value in values[stop:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def mean(values: Sequence[float]) -> float:
    """The float ``numpy.mean`` returns for a non-empty sequence."""
    return _pairwise_sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The float ``numpy.percentile(values, q)`` returns (its default
    ``linear`` method) for a non-empty sequence."""
    ordered = sorted(values)
    last = len(ordered) - 1
    virtual = last * (q / 100)
    if virtual >= last:
        return ordered[last]
    below = math.floor(virtual)
    lo, hi = ordered[below], ordered[below + 1]
    gamma = virtual - below
    # numpy's lerp anchors on the nearer end point.
    if gamma >= 0.5:
        return hi - (hi - lo) * (1 - gamma)
    return lo + (hi - lo) * gamma


def summarize_records(records: List[MigrationRecord]) -> Dict[str, float]:
    """Means/percentiles of migration and freeze time (completed only)."""
    done = [r for r in records if not r.refused]
    if not done:
        return {"count": 0, "refused": sum(1 for r in records if r.refused)}
    totals = [r.total_time for r in done]
    freezes = [r.freeze_time for r in done]
    return {
        "count": len(done),
        "refused": sum(1 for r in records if r.refused),
        "mean_total_s": mean(totals),
        "p95_total_s": percentile(totals, 95),
        "mean_freeze_s": mean(freezes),
        "p95_freeze_s": percentile(freezes, 95),
        "mean_streams": mean([r.streams_moved for r in done]),
        "vm_bytes_total": float(sum(r.vm.bytes_total if r.vm else 0 for r in done)),
    }
