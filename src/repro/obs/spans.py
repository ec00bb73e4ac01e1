"""Sim-time spans: durations with parents, layered on the flat tracer.

A :class:`Span` is a named interval of simulated time with an optional
parent link and free-form attributes — the unit the thesis's evaluation
is built from (per-phase migration breakdowns, the 56 ms host-selection
time, RPC round trips).  A :class:`SpanTracer` allocates span ids,
keeps every finished span, and mirrors each finished span into the
underlying :class:`~repro.sim.trace.Tracer` as a ``"span"`` record so
span data rides the same stream tests and exporters already consume.

Cost model (the PR-1 invariant): spans are **disabled by default** and
every instrumentation site in the library is guarded by
``if spans.enabled:`` — a disabled run pays one attribute load and one
branch per site, nothing else.  The ``obs-unguarded-emit`` lint rule
(``python -m repro lint``) enforces the guard statically.  Enabling the tracer alone does *not* enable
spans (so PR 1's golden fixed-seed trace is unchanged); span emission
is switched on explicitly, normally via
:meth:`repro.obs.ClusterObservability.install` or the ``repro trace``
CLI.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from ..sim.trace import Tracer

__all__ = [
    "Span",
    "SpanTracer",
    "SPAN_KIND",
    "SPAN_CATALOGUE",
    "MIG_MIGRATE",
    "MIG_NEGOTIATE",
    "MIG_VM_PRE",
    "MIG_WAIT_SAFE_POINT",
    "MIG_FREEZE",
    "MIG_COMMIT",
    "MIG_VM_TRANSFER",
    "MIG_STATE_PACK",
    "MIG_STREAMS",
    "MIG_INSTALL",
    "MIG_COMMIT_RPC",
    "MIG_UPDATE_HOME",
    "EVICT_RECLAIM",
    "SELECT_REQUEST",
    "KERNEL_FORWARD",
    "RPC_CALL",
    "RPC_SERVE",
    "FAULT_OUTAGE",
    "FAULT_SUSPECT",
    "CKPT_CHECKPOINT",
    "CKPT_WRITE",
    "CKPT_RESTORE",
]

#: Trace-record kind under which finished spans are mirrored.
SPAN_KIND = "span"

# ----------------------------------------------------------------------
# Span-name catalogue
# ----------------------------------------------------------------------
# Every span the library emits is named here, once.  Downstream
# analysis — the critical-path attribution in :mod:`.critpath`, the
# migration breakdowns in :mod:`.export` — keys on these strings, so a
# silently drifting phase name would corrupt attribution without
# failing any single-layer test.  The ``obs-span-catalogue`` lint rule
# (``python -m repro lint``) requires span names at ``SpanTracer.start``
# / ``SpanTracer.record`` call sites to resolve to a member of
# :data:`SPAN_CATALOGUE`.

#: Migration lifecycle root and its contiguous phase children.
MIG_MIGRATE = "mig.migrate"
MIG_NEGOTIATE = "mig.negotiate"
MIG_VM_PRE = "mig.vm_pre"
MIG_WAIT_SAFE_POINT = "mig.wait_safe_point"
MIG_FREEZE = "mig.freeze"
MIG_COMMIT = "mig.commit"

#: Transfer sub-steps (siblings of the phases, parented on the root).
MIG_VM_TRANSFER = "mig.vm_transfer"
MIG_STATE_PACK = "mig.state_pack"
MIG_STREAMS = "mig.streams"
MIG_INSTALL = "mig.install"
MIG_COMMIT_RPC = "mig.commit_rpc"
MIG_UPDATE_HOME = "mig.update_home"

#: Other instrumented subsystems.
EVICT_RECLAIM = "evict.reclaim"
SELECT_REQUEST = "select.request"
KERNEL_FORWARD = "kernel.forward"
RPC_CALL = "rpc.call"
RPC_SERVE = "rpc.serve"
FAULT_OUTAGE = "fault.outage"
#: Suspicion interval of the accrual failure detector: opens when a
#: host is declared dead, closes when the host reconciles (reappears).
FAULT_SUSPECT = "fault.suspect"

#: Checkpoint/restart lifecycle (``repro.checkpoint``): one checkpoint
#: of one process (root), the backing-file image write inside it, and
#: a crash-triggered restore on a surviving host.
CKPT_CHECKPOINT = "ckpt.checkpoint"
CKPT_WRITE = "ckpt.write"
CKPT_RESTORE = "ckpt.restore"

#: The registered span names; membership is lint-enforced at emit sites.
SPAN_CATALOGUE = frozenset({
    MIG_MIGRATE,
    MIG_NEGOTIATE,
    MIG_VM_PRE,
    MIG_WAIT_SAFE_POINT,
    MIG_FREEZE,
    MIG_COMMIT,
    MIG_VM_TRANSFER,
    MIG_STATE_PACK,
    MIG_STREAMS,
    MIG_INSTALL,
    MIG_COMMIT_RPC,
    MIG_UPDATE_HOME,
    EVICT_RECLAIM,
    SELECT_REQUEST,
    KERNEL_FORWARD,
    RPC_CALL,
    RPC_SERVE,
    FAULT_OUTAGE,
    FAULT_SUSPECT,
    CKPT_CHECKPOINT,
    CKPT_WRITE,
    CKPT_RESTORE,
})


class Span:
    """One named interval of simulated time."""

    __slots__ = ("tracer", "name", "source", "sid", "parent_sid", "start",
                 "end", "attrs")

    def __init__(
        self,
        tracer: "SpanTracer",
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

    # ------------------------------------------------------------------
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

    def finish(self, t: Optional[float] = None, **attrs: Any) -> "Span":
        """Close the span at time ``t`` (idempotent)."""
        if self.end is None:
            if attrs:
                self.attrs.update(attrs)
            self.tracer._finish(self, t)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "source": self.source,
            "sid": self.sid,
            "parent": self.parent_sid,
            "start": self.start,
            "end": self.end,
            "dur": self.duration,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.finished else "open"
        return f"<Span {self.name} #{self.sid} {state}>"


class SpanTracer:
    """Span factory and store; one per :class:`Tracer` (cluster-wide)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: Master switch.  Off by default; instrumentation sites guard
        #: on this, so a disabled run never allocates a span.
        self.enabled = False
        #: Optional sim-clock callable used when ``t`` is omitted.
        self.clock: Optional[Callable[[], float]] = None
        self._seq = itertools.count(1)
        self.open: Dict[int, Span] = {}
        self.finished: List[Span] = []

    # ------------------------------------------------------------------
    @classmethod
    def for_tracer(cls, tracer: Tracer) -> "SpanTracer":
        """The (single) span tracer bound to ``tracer``, creating it on
        first use.  Every component holding the cluster's tracer gets
        the same instance, so span ids and parent links are global."""
        spans = getattr(tracer, "_span_tracer", None)
        if spans is None:
            spans = cls(tracer)
            tracer._span_tracer = spans  # type: ignore[attr-defined]
        return spans

    # ------------------------------------------------------------------
    def _now(self, t: Optional[float]) -> float:
        if t is not None:
            return t
        if self.clock is not None:
            return self.clock()
        raise ValueError("span time required: pass t= or set SpanTracer.clock")

    def start(
        self,
        name: str,
        source: str,
        parent: Optional[Span] = None,
        t: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span starting at ``t`` (or the clock's now)."""
        span = Span(
            self, name, source, next(self._seq),
            parent.sid if parent is not None else None,
            self._now(t), attrs,
        )
        self.open[span.sid] = span
        return span

    def record(
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
            self, name, source, next(self._seq),
            parent.sid if parent is not None else None,
            start, attrs,
        )
        span.end = end
        self._store(span)
        return span

    def _finish(self, span: Span, t: Optional[float]) -> None:
        span.end = self._now(t)
        if span.end < span.start:
            raise ValueError(
                f"span {span.name!r} finished before it started "
                f"({span.end} < {span.start})"
            )
        self.open.pop(span.sid, None)
        self._store(span)

    def _store(self, span: Span) -> None:
        self.finished.append(span)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
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

    def __len__(self) -> int:
        return len(self.finished)
