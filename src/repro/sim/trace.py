"""Structured event tracing.

Components emit ``(time, source, kind, detail)`` records to a shared
:class:`Tracer`.  Tests assert on traces; benchmarks aggregate them; the
examples print them.  Tracing is off by default and costs one predicate
check per emit when disabled.

Higher-level observability (sim-time spans, metric registries, Chrome
trace export) lives in :mod:`repro.obs`, layered on this flat record
stream; the tracer itself stays allocation-free when disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence."""

    time: float
    source: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:12.6f}] {self.source:<20} {self.kind:<24} {parts}"


class Tracer:
    """Collects trace records, optionally filtered by kind.

    Filter semantics
    ----------------
    When ``kinds`` is set, the filter is applied **at emit time**: a
    record whose kind is not in the set is dropped before it is stored
    *and* before the ``sink`` sees it — attaching a sink mid-run does
    not bypass the filter.  Consequently ``records``, :meth:`between`
    and ``len`` see the *retained* records only; ``kinds`` tells "no
    such events happened" from "that kind is filtered out".
    """

    def __init__(self, enabled: bool = False, kinds: Optional[List[str]] = None):
        self.enabled = enabled
        self.kinds = set(kinds) if kinds else None
        self.records: List[TraceRecord] = []
        #: Optional sink called with each *retained* record as it is
        #: emitted (e.g. ``print`` for live example output).  Records
        #: dropped by the ``kinds`` filter never reach the sink.
        self.sink: Optional[Callable[[TraceRecord], None]] = None

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> None:
        if not self.enabled:
            return
        if self.kinds is not None and kind not in self.kinds:
            return
        record = TraceRecord(time, source, kind, detail)
        self.records.append(record)
        if self.sink is not None:
            self.sink(record)

    def between(self, start: float, end: float) -> List[TraceRecord]:
        """Retained records with ``start <= time <= end`` (inclusive),
        in emit order.  A scan, not a bisection: ``records`` is not
        time-sorted — a span mirrored into the trace is stamped with
        its *end* time when it is stored, which can precede the record
        before it."""
        return [r for r in self.records if start <= r.time <= end]

    def __len__(self) -> int:
        return len(self.records)
