"""Structured event tracing: flat records and sim-time spans.

One :class:`Tracer` per cluster holds both streams.  Components emit
``(time, source, kind, detail)`` records to it; tests assert on them,
benchmarks aggregate them, the examples print them.  The same tracer
keeps :class:`Span` s, named intervals of simulated time with parent
links (per-phase migration breakdowns, the 56 ms host selection, RPC
round trips), and mirrors each finished span into the record stream as
a ``kind="span"`` record.

Each stream has its own switch, both off by default: ``enabled`` for
records and ``spans_enabled`` for spans.  Turning the records on does
not turn spans on, so a fixed-seed trace with only records enabled
holds no span.  Every emit site guards on the switch
(``if tracer.enabled:`` / ``if tracer.spans_enabled:``), so a disabled
run pays one attribute test per site; the ``obs-unguarded-emit`` lint
rule enforces the guard.  Span times are always passed explicitly.

Exporters, metrics and the span-name catalogue live in
:mod:`repro.obs`, layered on this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["SPAN_KIND", "Span", "TraceRecord", "Tracer"]

#: Record kind under which finished spans are mirrored.
SPAN_KIND = "span"


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


class Span:
    """One named interval of simulated time."""

    __slots__ = ("tracer", "name", "source", "sid", "parent_sid", "start",
                 "end", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        source: str,
        sid: int,
        parent_sid: Optional[int],
        start: float,
        attrs: Dict[str, Any],
    ):
        self.tracer = tracer
        self.name = name
        self.source = source
        self.sid = sid
        self.parent_sid = parent_sid
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Seconds of simulated time covered (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end is not None

    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, t: float, **attrs: Any) -> "Span":
        """Close the span at time ``t`` (idempotent)."""
        if self.end is None:
            if attrs:
                self.attrs.update(attrs)
            self.tracer._finish_span(self, t)
        return self

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.finished else "open"
        return f"<Span {self.name} #{self.sid} {state}>"


class Tracer:
    """Collects trace records and spans."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.records: List[TraceRecord] = []
        #: The span switch, independent of ``enabled``; span sites guard
        #: on it, so a run with it off never allocates a span.
        self.spans_enabled = False
        self.finished_spans: List[Span] = []
        self.open_spans: Dict[int, Span] = {}
        self._span_seq = itertools.count(1)

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> None:
        if self.enabled:
            self.records.append(TraceRecord(time, source, kind, detail))

    def between(self, start: float, end: float) -> List[TraceRecord]:
        """Records with ``start <= time <= end`` (inclusive),
        in emit order.  A scan, not a bisection: ``records`` is not
        time-sorted — a span mirrored into the trace is stamped with
        its *end* time when it is stored, which can precede the record
        before it."""
        return [r for r in self.records if start <= r.time <= end]

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Spans.  Span ids count up per tracer, so they are unique, and
    # parent links hold, across every host of a cluster.
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        source: str,
        t: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span starting at ``t``; close it with ``Span.finish``."""
        span = Span(
            self, name, source, next(self._span_seq),
            parent.sid if parent is not None else None, t, attrs,
        )
        self.open_spans[span.sid] = span
        return span

    def record_span(
        self,
        name: str,
        source: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-completed span (explicit boundaries).

        The shape the migration mechanism uses: phase boundaries are
        known sim times, so the span is born finished and no open-span
        bookkeeping is needed on exception paths.
        """
        span = Span(
            self, name, source, next(self._span_seq),
            parent.sid if parent is not None else None, start, attrs,
        )
        span.end = end
        self._store_span(span)
        return span

    def _finish_span(self, span: Span, t: float) -> None:
        if t < span.start:
            raise ValueError(
                f"span {span.name!r} finished before it started "
                f"({t} < {span.start})"
            )
        span.end = t
        self.open_spans.pop(span.sid, None)
        self._store_span(span)

    def _store_span(self, span: Span) -> None:
        """Keep a finished span and mirror it as a ``kind="span"`` record."""
        self.finished_spans.append(span)
        if self.enabled:
            self.emit(
                span.end,
                span.source,
                SPAN_KIND,
                name=span.name,
                sid=span.sid,
                parent=span.parent_sid,
                start=span.start,
                dur=span.end - span.start,
                **span.attrs,
            )
