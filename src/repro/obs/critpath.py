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
:data:`~repro.obs.export.MIGRATION_PHASES`), so their durations
partition ``MigrationRecord.total_time``; within each phase, part
seconds plus the explicit ``(self)`` remainder sum *exactly* to the
phase duration by construction (the remainder is computed as the
difference).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .export import MIGRATION_PHASES
from .spans import MIG_MIGRATE, RPC_CALL, RPC_SERVE, Span

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


# ----------------------------------------------------------------------
# Graph index
# ----------------------------------------------------------------------
class SpanIndex:
    """Finished spans indexed by sid, parent link, and RPC causal edge."""

    def __init__(self, spans: Sequence[Span]):
        self.spans: List[Span] = [s for s in spans if s.finished]
        self.by_sid: Dict[int, Span] = {s.sid: s for s in self.spans}
        self.children: Dict[int, List[Span]] = {}
        #: caller ``rpc.call`` sid -> the ``rpc.serve`` spans it caused.
        self.serves: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent_sid is not None:
                self.children.setdefault(span.parent_sid, []).append(span)
            if span.name == RPC_SERVE:
                caller = span.attrs.get("caller_sid")
                if caller is not None:
                    self.serves.setdefault(caller, []).append(span)
        for kids in self.children.values():
            kids.sort(key=lambda s: (s.start, s.sid))
        for kids in self.serves.values():
            kids.sort(key=lambda s: (s.start, s.sid))

    # ------------------------------------------------------------------
    def effective_parent(self, span: Span) -> Optional[Span]:
        """The causal parent: the span's parent link, or — for an
        ``rpc.serve`` span — the ``rpc.call`` that caused it."""
        if span.parent_sid is not None:
            return self.by_sid.get(span.parent_sid)
        if span.name == RPC_SERVE:
            caller = span.attrs.get("caller_sid")
            if caller is not None:
                return self.by_sid.get(caller)
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

    def calls_from(self, host: str) -> List[Span]:
        """``rpc.call`` spans originating on ``host`` (by node name)."""
        source = f"rpc:{host}"
        return [s for s in self.spans
                if s.name == RPC_CALL and s.source == source]


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
    serve_seconds = sum(s.duration for s in index.serves.get(call.sid, ()))
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
        host = root.source.split(":", 1)[-1]
        kids = index.children.get(root.sid, [])
        phase_spans = {s.name: s for s in kids if s.name in MIGRATION_PHASES}
        substeps = [s for s in kids if s.name not in MIGRATION_PHASES]
        host_calls = index.calls_from(host)
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

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_critical_path(spans: Sequence[Span]) -> List[CritSegment]:
    """The run's critical path: at every instant, the causally deepest
    active span (parent links + RPC edges).

    Returns maximal constant-winner segments covering the run's extent
    (first span start to last span end), including explicit ``(idle)``
    segments where no span was active.  Deterministic: ties break by
    depth, then latest start, then highest sid.
    """
    index = SpanIndex(spans)
    if not index.spans:
        return []
    depths = {s.sid: index.depth(s) for s in index.spans}
    bounds = sorted({b for s in index.spans for b in (s.start, s.end)})
    segments: List[CritSegment] = []
    for left, right in zip(bounds, bounds[1:]):
        if right <= left:
            continue
        winner: Optional[Span] = None
        winner_rank: Optional[Tuple[int, float, int]] = None
        for span in index.spans:
            if span.start <= left and span.end >= right:
                rank = (depths[span.sid], span.start, span.sid)
                if winner_rank is None or rank > winner_rank:
                    winner_rank = rank
                    winner = span
        if winner is None:
            label, source = "(idle)", "-"
        else:
            label, source = winner.name, winner.source
        if segments and segments[-1].label == label and segments[-1].source == source:
            segments[-1].end = right
        else:
            segments.append(CritSegment(left, right, label, source))
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


def render_run_path(
    segments: Sequence[CritSegment], limit: int = 40
) -> str:
    """Rollup table plus the first ``limit`` critical-path segments."""
    lines = ["critical-path profile (whole run):",
             f"  {'span':<24} {'crit_s':>10} {'segments':>9}"]
    for name, seconds, count in critical_path_profile(segments):
        lines.append(f"  {name:<24} {seconds:>10.6f} {count:>9}")
    lines.append("")
    lines.append(f"critical-path segments (first {limit}):")
    for segment in list(segments)[:limit]:
        lines.append(
            f"  {segment.start:>12.6f} .. {segment.end:>12.6f} "
            f"{segment.seconds:>10.6f}s  {segment.label} [{segment.source}]"
        )
    dropped = max(0, len(segments) - limit)
    if dropped:
        lines.append(f"  ... {dropped} more segment(s) not shown")
    if not segments:
        lines.append("  (no finished spans)")
    return "\n".join(lines)


def critpath_report(spans: Sequence[Span], limit: int = 40) -> str:
    """The full deterministic report: attribution tables + run path."""
    rows = migration_critical_paths(spans)
    segments = run_critical_path(spans)
    return (
        render_attribution_table(rows)
        + "\n\n"
        + render_run_path(segments, limit=limit)
        + "\n"
    )
