"""Aggregation helpers over migration telemetry."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .mechanism import MigrationManager, MigrationRecord

__all__ = [
    "collect_records",
    "mean",
    "records_by_reason",
    "refusal_reasons",
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
