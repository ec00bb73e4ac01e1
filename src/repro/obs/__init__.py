"""Cluster-wide observability: spans, metrics, trace export.

Layered on :mod:`repro.sim.trace`'s flat record stream:

* :mod:`.spans`   — sim-time :class:`Span`/:class:`SpanTracer` with
  parent links, instrumented through the migration lifecycle, host
  selection, eviction, and RPC.
* :mod:`.metrics` — per-host/cluster counters, gauges, and
  histogram-backed timers with a sim-time sampler.
* :mod:`.tables`  — :class:`Table` / :class:`Series`, the paper-style
  result rendering every benchmark prints.
* :mod:`.export`  — JSONL and Chrome trace-event exporters, text
  summary/flame views, and span-derived migration breakdowns.
* :mod:`.install` — :class:`ClusterObservability`, the one-call wiring
  for a :class:`~repro.cluster.SpriteCluster` (also reachable as
  ``cluster.observability()``).
* :mod:`.critpath` — causal critical-path analysis: per-migration
  latency attribution tables and whole-run critical-path profiles.
* :mod:`.profile` — engine hot-spot profiler attributing dispatched
  events per task source / subsystem (opt-in ``Simulator.profiler``).

Everything is opt-in and zero-cost when off: instrumentation sites are
guarded by ``enabled`` flags or ``is not None`` hooks, statically
checked by the ``obs-unguarded-emit`` lint rule.  See
``docs/observability.md`` for the span taxonomy and metric names.
"""

from .critpath import (
    critpath_report,
    migration_critical_paths,
    render_attribution_table,
    render_run_path,
    run_critical_path,
)
from .export import (
    migration_breakdowns,
    render_flame,
    render_span_summary,
    spans_to_chrome_trace,
    trace_to_jsonl,
)
from .install import ClusterObservability
from .metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    MetricsSampler,
    Timer,
)
from .profile import EngineProfiler
from .spans import (
    CKPT_CHECKPOINT,
    CKPT_RESTORE,
    CKPT_WRITE,
    EVICT_RECLAIM,
    FAULT_OUTAGE,
    FAULT_SUSPECT,
    KERNEL_FORWARD,
    MIG_COMMIT,
    MIG_COMMIT_RPC,
    MIG_FREEZE,
    MIG_INSTALL,
    MIG_MIGRATE,
    MIG_NEGOTIATE,
    MIG_STATE_PACK,
    MIG_STREAMS,
    MIG_UPDATE_HOME,
    MIG_VM_PRE,
    MIG_VM_TRANSFER,
    MIG_WAIT_SAFE_POINT,
    RPC_CALL,
    RPC_SERVE,
    SELECT_REQUEST,
    SPAN_CATALOGUE,
    SPAN_KIND,
    Span,
    SpanTracer,
)
from .tables import Series, Table

__all__ = [
    "CKPT_CHECKPOINT",
    "CKPT_RESTORE",
    "CKPT_WRITE",
    "EVICT_RECLAIM",
    "FAULT_OUTAGE",
    "FAULT_SUSPECT",
    "KERNEL_FORWARD",
    "MIG_COMMIT",
    "MIG_COMMIT_RPC",
    "MIG_FREEZE",
    "MIG_INSTALL",
    "MIG_MIGRATE",
    "MIG_NEGOTIATE",
    "MIG_STATE_PACK",
    "MIG_STREAMS",
    "MIG_UPDATE_HOME",
    "MIG_VM_PRE",
    "MIG_VM_TRANSFER",
    "MIG_WAIT_SAFE_POINT",
    "RPC_CALL",
    "RPC_SERVE",
    "SELECT_REQUEST",
    "SPAN_CATALOGUE",
    "SPAN_KIND",
    "ClusterObservability",
    "Counter",
    "EngineProfiler",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsSampler",
    "Series",
    "Span",
    "SpanTracer",
    "Table",
    "Timer",
    "critpath_report",
    "migration_breakdowns",
    "migration_critical_paths",
    "render_attribution_table",
    "render_flame",
    "render_run_path",
    "render_span_summary",
    "run_critical_path",
    "spans_to_chrome_trace",
    "trace_to_jsonl",
]
