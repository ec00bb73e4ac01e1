"""Causal critical-path analysis over finished spans.

The thesis's evaluation is a *cost breakdown*: migration time decomposed
into negotiation, virtual-memory shipping, state packaging, and RPC
components.  The span layer records all of those; this module answers
the question the raw spans cannot: **what made this migration (or this
run) slow?**

Two causal edge kinds connect the spans into a DAG:

* **parent links** — a span's ``parent_sid``, set at emission (phases
  and transfer sub-steps hang off their ``mig.migrate`` root);
* **cross-host RPC edges** — every ``rpc.serve`` span carries the
  ``caller_sid`` of the ``rpc.call`` span that caused it (tagged at
  :class:`~repro.net.rpc.RpcPort`), so server-side work is attributed
  to the client-side call that waited on it.

Everything here is pure sim-time arithmetic over finished spans — no
wall clock, no randomness — so every report is byte-identical across
fixed-seed reruns and across sweep worker counts.

Attribution contract
--------------------
:func:`migration_critical_paths` emits one row per ``mig.migrate``
root.  The row's phases are the contiguous phase children (see
:data:`MIGRATION_PHASES`), so their durations partition
``MigrationRecord.total_time``; within each phase, part seconds plus
the explicit ``(self)`` remainder sum *exactly* to the phase duration
by construction (the remainder is computed as the difference).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.trace import Span, Tracer
from .spans import (
    MIG_COMMIT,
    MIG_FREEZE,
    MIG_MIGRATE,
    MIG_NEGOTIATE,
    MIG_VM_PRE,
    MIG_WAIT_SAFE_POINT,
    RPC_CALL,
    RPC_SERVE,
)

__all__ = [
    "Attribution",
    "PhaseCritPath",
    "MigrationCritPath",
    "CritSegment",
    "SpanIndex",
    "migration_critical_paths",
    "run_critical_path",
    "critical_path_profile",
    "render_attribution_table",
    "render_run_path",
    "critpath_report",
]

#: A span's identity: its tracer (one per cluster) and its id there.
SpanId = Tuple[Tracer, int]

#: Phase spans that partition a ``mig.migrate`` root contiguously.
MIGRATION_PHASES = (MIG_NEGOTIATE, MIG_VM_PRE, MIG_WAIT_SAFE_POINT,
                    MIG_FREEZE, MIG_COMMIT)


# ----------------------------------------------------------------------
# Graph index
# ----------------------------------------------------------------------
class SpanIndex:
    """Finished spans indexed by id, parent link, and RPC causal edge.

    Span ids count per tracer, so spans captured from several clusters
    repeat them; every key is a :data:`SpanId`.
    """

    def __init__(self, spans: Sequence[Span]):
        self.spans: List[Span] = [s for s in spans if s.finished]
        self.by_id: Dict[SpanId, Span] = {
            (s.tracer, s.sid): s for s in self.spans
        }
        self.children: Dict[SpanId, List[Span]] = {}
        #: caller ``rpc.call`` id -> the ``rpc.serve`` spans it caused.
        self.serves: Dict[SpanId, List[Span]] = {}
        #: ``(tracer, source)`` -> the ``rpc.call`` spans issued there.
        self.calls: Dict[Tuple[Tracer, str], List[Span]] = {}
        for span in self.spans:
            if span.parent_sid is not None:
                self.children.setdefault(
                    (span.tracer, span.parent_sid), []
                ).append(span)
            if span.name == RPC_SERVE:
                caller = span.attrs.get("caller_sid")
                if caller is not None:
                    self.serves.setdefault(
                        (span.tracer, caller), []
                    ).append(span)
            elif span.name == RPC_CALL:
                self.calls.setdefault(
                    (span.tracer, span.source), []
                ).append(span)
        for kids in self.children.values():
            kids.sort(key=lambda s: (s.start, s.sid))
        for kids in self.serves.values():
            kids.sort(key=lambda s: (s.start, s.sid))
        #: ``calls`` key -> its calls' positions by start, those starts
        #: and the running maximum of their ends: a window is two bisections.
        self._windows: Dict[Tuple[Tracer, str], Tuple[list, list, list]] = {}
        for key, calls in self.calls.items():
            starts = [call.start for call in calls]
            order = sorted(range(len(calls)), key=starts.__getitem__)
            ends = list(accumulate([calls[i].end for i in order], max))
            self._windows[key] = (order, [starts[i] for i in order], ends)

    # ------------------------------------------------------------------
    def effective_parent(self, span: Span) -> Optional[Span]:
        """The causal parent: the span's parent link, or — for an
        ``rpc.serve`` span — the ``rpc.call`` that caused it."""
        if span.parent_sid is not None:
            return self.by_id.get((span.tracer, span.parent_sid))
        if span.name == RPC_SERVE:
            caller = span.attrs.get("caller_sid")
            if caller is not None:
                return self.by_id.get((span.tracer, caller))
        return None

    def depth(self, span: Span) -> int:
        """Causal depth (roots are 0); cycles are impossible because
        every edge points at an earlier-allocated sid."""
        depth = 0
        current: Optional[Span] = span
        while current is not None:
            current = self.effective_parent(current)
            if current is None:
                break
            depth += 1
        return depth

    def calls_from(self, root: Span) -> List[Span]:
        """``rpc.call`` spans of ``root``'s cluster originating on its
        host (by node name) that touch ``root``'s extent, in span order.

        No other call can overlap a migration's phases or sub-steps: the
        mechanism records them inside the root's extent.
        """
        key = (root.tracer, "rpc:" + root.source.split(":", 1)[-1])
        calls = self.calls.get(key, [])
        order, starts, ends = self._windows.get(key, ([], [], []))
        # ``ends`` never falls, so every call before the first bisection
        # ended before the root began; every one from the second starts
        # after the root ended.
        lo, hi = root.start, root.end
        window = order[bisect_left(ends, lo):bisect_right(starts, hi)]
        return [calls[i] for i in sorted(window) if calls[i].end >= lo]


# ----------------------------------------------------------------------
# Attribution rows
# ----------------------------------------------------------------------
@dataclass
class Attribution:
    """One critical-path component of a phase."""

    label: str          #: span name (``rpc.call(service)`` for calls) or ``(self)``
    seconds: float
    #: For parts backed by RPC calls: server-side seconds (from the
    #: linked ``rpc.serve`` spans) and the wire/wait remainder.
    serve_seconds: float = 0.0
    detail: str = ""


@dataclass
class PhaseCritPath:
    """One migration phase with its exact attribution."""

    phase: str          #: short phase name (``negotiate``, ``freeze`` …)
    seconds: float
    parts: List[Attribution] = field(default_factory=list)


@dataclass
class MigrationCritPath:
    """The paper-style latency attribution for one migration."""

    pid: Optional[int]
    source: Optional[int]
    target: Optional[int]
    reason: Optional[str]
    refused: bool
    started: float
    ended: float
    phases: List[PhaseCritPath] = field(default_factory=list)

    @property
    def total(self) -> float:
        """Sum of the phase durations — the partitioned total."""
        return sum(p.seconds for p in self.phases)


def _clip(span: Span, lo: float, hi: float) -> Optional[Tuple[float, float]]:
    start = max(span.start, lo)
    end = min(span.end if span.end is not None else lo, hi)
    if end <= start:
        return None
    return (start, end)


def _sweep(
    interval: Tuple[float, float],
    covers: List[Tuple[Span, float, float, int]],
) -> Dict[int, float]:
    """Partition ``interval`` among clipped ``covers`` (priority wins).

    ``covers`` holds ``(span, clipped_start, clipped_end, tier)``;
    returns seconds per covering span sid.  Elementary sub-intervals
    are cut at every cover boundary; each is assigned to the covering
    span with the highest tier, then latest start, then earliest end,
    then highest sid — i.e. the highest-priority, most tightly nested
    one — so overlapping covers never double count and the assignment
    is deterministic.
    """
    lo, hi = interval
    bounds = {lo, hi}
    for _span, start, end, _tier in covers:
        bounds.add(start)
        bounds.add(end)
    cuts = sorted(bounds)
    assigned: Dict[int, float] = {}
    for left, right in zip(cuts, cuts[1:]):
        winner: Optional[Tuple[int, float, float, int]] = None
        winner_sid = None
        for span, start, end, tier in covers:
            if start <= left and end >= right:
                rank = (tier, start, -end, span.sid)
                if winner is None or rank > winner:
                    winner = rank
                    winner_sid = span.sid
        if winner_sid is not None:
            assigned[winner_sid] = assigned.get(winner_sid, 0.0) + (right - left)
    return assigned


def _rpc_detail(
    index: SpanIndex, call: Span
) -> Tuple[float, str]:
    """Server-side seconds and a rendered detail for one ``rpc.call``."""
    serve_seconds = sum(
        s.duration for s in index.serves.get((call.tracer, call.sid), ())
    )
    outcome = call.attrs.get("outcome", "?")
    dst = call.attrs.get("dst")
    if serve_seconds > 0.0:
        wire = max(0.0, call.duration - serve_seconds)
        detail = (f"dst={dst} serve={serve_seconds:.6f}s "
                  f"wire+wait={wire:.6f}s {outcome}")
    else:
        detail = f"dst={dst} {outcome}"
    return serve_seconds, detail


def migration_critical_paths(spans: Sequence[Span]) -> List[MigrationCritPath]:
    """Per-migration critical-path attribution rows.

    For every ``mig.migrate`` root: its phase children partition the
    total; within each phase, elementary intervals are attributed
    deepest-wins to the transfer sub-steps (``mig.vm_transfer``,
    ``mig.state_pack``, …) and, where no sub-step covers, to the
    ``rpc.call`` spans issued from the migration's host; whatever
    remains is the phase's own ``(self)`` time — so each phase's parts
    sum exactly to its duration.
    """
    index = SpanIndex(spans)
    rows: List[MigrationCritPath] = []
    for root in sorted(
        (s for s in index.spans if s.name == MIG_MIGRATE),
        key=lambda s: (s.start, s.sid),
    ):
        kids = index.children.get((root.tracer, root.sid), [])
        phase_spans = {s.name: s for s in kids if s.name in MIGRATION_PHASES}
        substeps = [s for s in kids if s.name not in MIGRATION_PHASES]
        host_calls = index.calls_from(root)
        row = MigrationCritPath(
            pid=root.attrs.get("pid"),
            source=root.attrs.get("src"),
            target=root.attrs.get("dst"),
            reason=root.attrs.get("reason"),
            refused=bool(root.attrs.get("refused", False)),
            started=root.start,
            ended=root.end if root.end is not None else root.start,
        )
        for name in MIGRATION_PHASES:
            phase = phase_spans.get(name)
            short = name.split(".", 1)[1]
            if phase is None:
                row.phases.append(PhaseCritPath(phase=short, seconds=0.0))
                continue
            interval = (phase.start, phase.end)
            crit = PhaseCritPath(phase=short, seconds=phase.duration)
            # Tier 1: the migration's own transfer sub-steps (they carry
            # the paper's row labels, so they win over the RPC calls
            # they wrap).  Tier 0: RPC calls from this host fill what
            # tier 1 left uncovered (e.g. negotiate is pure RPC).
            substep_sids = {s.sid for s in substeps}
            covers = [
                (s, c[0], c[1], 1) for s in substeps
                if (c := _clip(s, *interval)) is not None
            ] + [
                (s, c[0], c[1], 0) for s in host_calls
                if (c := _clip(s, *interval)) is not None
            ]
            assigned = _sweep(interval, covers)
            parts: List[Attribution] = []
            for span in substeps:
                seconds = assigned.get(span.sid, 0.0)
                if seconds <= 0.0:
                    continue
                calls_inside = [
                    c for c in host_calls
                    if c.start >= span.start and c.end <= span.end
                ]
                serve_seconds = 0.0
                details = []
                for call in calls_inside:
                    serve, _detail = _rpc_detail(index, call)
                    serve_seconds += serve
                    details.append(call.attrs.get("service", "?"))
                parts.append(Attribution(
                    label=span.name,
                    seconds=seconds,
                    serve_seconds=serve_seconds,
                    detail=f"rpc: {', '.join(details)}" if details else "",
                ))
            for span in host_calls:
                if span.sid in substep_sids:
                    continue
                seconds = assigned.get(span.sid, 0.0)
                if seconds <= 0.0:
                    continue
                serve_seconds, detail = _rpc_detail(index, span)
                parts.append(Attribution(
                    label=f"rpc.call({span.attrs.get('service', '?')})",
                    seconds=seconds,
                    serve_seconds=serve_seconds,
                    detail=detail,
                ))
            parts.sort(key=lambda p: (-p.seconds, p.label))
            remainder = crit.seconds - sum(p.seconds for p in parts)
            if parts and remainder < 0.0:
                # Float-sum epsilon: fold it into the largest part so
                # the partition stays exact.
                parts[0].seconds += remainder
                remainder = 0.0
            parts.append(Attribution(label="(self)", seconds=remainder))
            crit.parts = parts
            row.phases.append(crit)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Whole-run critical path
# ----------------------------------------------------------------------
@dataclass
class CritSegment:
    """One maximal interval during which a single span was deepest."""

    start: float
    end: float
    label: str      #: span name, or ``(idle)`` when nothing was active
    source: str
    #: The cluster's number, in the order its first span is listed.
    cluster: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_critical_path(spans: Sequence[Span]) -> List[CritSegment]:
    """The run's critical path: at every instant, the causally deepest
    active span (parent links + RPC edges).

    Every cluster's clock starts at 0, so each tracer's spans get a path
    of their own, numbered in ``cluster`` and listed in that order.  A
    path is the maximal constant-winner segments covering its cluster's
    extent (first span start to last span end), including explicit
    ``(idle)`` segments where no span was active.  Deterministic: ties
    break by depth, then latest start, then highest sid, then the first
    listed.
    """
    index = SpanIndex(spans)
    clusters: Dict[Tracer, List[Span]] = {}
    for span in index.spans:
        clusters.setdefault(span.tracer, []).append(span)
    segments: List[CritSegment] = []
    for cluster, finished in enumerate(clusters.values()):
        depths = [index.depth(s) for s in finished]
        bounds = sorted({b for s in finished for b in (s.start, s.end)})
        # Every end is a bound, so a span covers the elementary interval
        # ``[left, right]`` exactly when ``start <= left < end``.  The
        # spans that have started wait on a heap, highest rank on top
        # and the first listed winning a tie; one that has ended leaves
        # when it reaches the top.
        by_start = sorted(range(len(finished)),
                          key=[s.start for s in finished].__getitem__)
        started = 0
        active: List[Tuple[int, float, int, int]] = []
        path: List[CritSegment] = []
        for left, right in zip(bounds, bounds[1:]):
            while (started < len(by_start)
                   and finished[by_start[started]].start <= left):
                i = by_start[started]
                span = finished[i]
                heappush(active, (-depths[i], -span.start, -span.sid, i))
                started += 1
            while active and finished[active[0][3]].end <= left:
                heappop(active)
            winner = finished[active[0][3]] if active else None
            if winner is None:
                label, source = "(idle)", "-"
            else:
                label, source = winner.name, winner.source
            if path and path[-1].label == label and path[-1].source == source:
                path[-1].end = right
            else:
                path.append(CritSegment(left, right, label, source, cluster))
        segments.extend(path)
    return segments


def critical_path_profile(
    segments: Sequence[CritSegment],
) -> List[Tuple[str, float, int]]:
    """Rollup: seconds and segment count on the critical path per span
    name, sorted by seconds descending (name ascending on ties)."""
    groups: Dict[str, Tuple[float, int]] = {}
    for segment in segments:
        seconds, count = groups.get(segment.label, (0.0, 0))
        groups[segment.label] = (seconds + segment.seconds, count + 1)
    return sorted(
        ((name, seconds, count) for name, (seconds, count) in groups.items()),
        key=lambda row: (-row[1], row[0]),
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
#: Critical-path segments listed after the rollup table.
_SEGMENTS = 40


def render_attribution_table(rows: Sequence[MigrationCritPath]) -> str:
    """The paper-style per-migration latency attribution table."""
    count = len(rows)
    lines: List[str] = [
        f"critical-path attribution ({count} "
        f"migration{'' if count == 1 else 's'}):",
        "",
    ]
    for row in rows:
        status = "refused" if row.refused else "ok"
        lines.append(
            f"migration pid={row.pid} {row.source}->{row.target} "
            f"reason={row.reason} ({status}) total={row.total:.6f}s"
        )
        lines.append(f"  {'phase':<16} {'part':<28} {'seconds':>10} {'%':>6}")
        total = row.total or 1.0
        for phase in row.phases:
            if phase.seconds == 0.0 and not phase.parts:
                lines.append(f"  {phase.phase:<16} {'(skipped)':<28} "
                             f"{0.0:>10.6f} {0.0:>6.1f}")
                continue
            first = True
            for part in phase.parts:
                head = phase.phase if first else ""
                first = False
                share = 100.0 * part.seconds / total
                suffix = f"  [{part.detail}]" if part.detail else ""
                lines.append(
                    f"  {head:<16} {part.label:<28} {part.seconds:>10.6f} "
                    f"{share:>6.1f}{suffix}"
                )
            lines.append(
                f"  {'':<16} {'= ' + phase.phase:<28} {phase.seconds:>10.6f} "
                f"{100.0 * phase.seconds / total:>6.1f}"
            )
        lines.append("")
    if not rows:
        lines.append("(no migrations in trace)")
    return "\n".join(lines).rstrip("\n")


def render_run_path(segments: Sequence[CritSegment]) -> str:
    """Rollup table plus the first critical-path segments; with several
    clusters the rollup sums their paths and each segment names its
    cluster."""
    clusters = len({segment.cluster for segment in segments})
    extent = ("whole run" if clusters <= 1
              else f"{clusters} clusters, each on its own clock")
    lines = [f"critical-path profile ({extent}):",
             f"  {'span':<24} {'crit_s':>10} {'segments':>9}"]
    for name, seconds, count in critical_path_profile(segments):
        lines.append(f"  {name:<24} {seconds:>10.6f} {count:>9}")
    lines.append("")
    lines.append(f"critical-path segments (first {_SEGMENTS}):")
    for segment in list(segments)[:_SEGMENTS]:
        where = (segment.source if clusters <= 1
                 else f"cluster {segment.cluster} {segment.source}")
        lines.append(
            f"  {segment.start:>12.6f} .. {segment.end:>12.6f} "
            f"{segment.seconds:>10.6f}s  {segment.label} [{where}]"
        )
    dropped = max(0, len(segments) - _SEGMENTS)
    if dropped:
        lines.append(f"  ... {dropped} more segment(s) not shown")
    if not segments:
        lines.append("  (no finished spans)")
    return "\n".join(lines)


def critpath_report(spans: Sequence[Span]) -> str:
    """The full deterministic report: attribution tables + run path."""
    rows = migration_critical_paths(spans)
    segments = run_critical_path(spans)
    return (
        render_attribution_table(rows)
        + "\n\n"
        + render_run_path(segments)
        + "\n"
    )
