"""Trace export and analysis: JSONL, Chrome trace events, text views.

Three consumers, three formats:

* **JSONL** — one :class:`~repro.sim.trace.TraceRecord` per line; the
  grep/jq-friendly archive format.
* **Chrome trace events** — the ``chrome://tracing`` / Perfetto JSON
  format.  Every finished span becomes one complete (``"ph": "X"``)
  event with microsecond ``ts``/``dur``; each distinct span source
  (``mig:ws0``, ``rpc:ws1``, ...) becomes a process row, named via
  ``"M"`` metadata events.  Load the file in a trace viewer and the
  migration lifecycle reads as a flame chart.
* **Text** — an aggregate summary table (count/total/mean/p95 per span
  name) and an indented flame view of the slowest roots, for terminals
  and CI logs.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..sim.trace import Span, TraceRecord, Tracer
from .metrics import LatencyHistogram

__all__ = [
    "trace_to_jsonl",
    "spans_to_chrome_trace",
    "render_span_summary",
    "render_flame",
]

Pathish = Union[str, pathlib.Path]

#: Seconds -> microseconds (the trace-event format's clock unit).
_US = 1e6


def trace_to_jsonl(
    records: Iterable[TraceRecord], path: Optional[Pathish] = None
) -> str:
    """Serialize records as JSON lines; write to ``path`` if given."""
    lines = []
    for record in records:
        lines.append(json.dumps(
            {
                "time": record.time,
                "source": record.source,
                "kind": record.kind,
                "detail": {k: _jsonable(v) for k, v in record.detail.items()},
            },
            sort_keys=True,
        ))
    text = "\n".join(lines) + ("\n" if lines else "")
    if path is not None:
        pathlib.Path(path).write_text(text)
    return text


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def spans_to_chrome_trace(
    spans: Sequence[Span], path: Optional[Pathish] = None
) -> Dict[str, Any]:
    """Spans as a Chrome trace-event document (``traceEvents`` list).

    One pid per distinct span source, announced with ``process_name``
    metadata; spans nest on a source's row by their time extents.
    """
    pids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for span in spans:
        if not span.finished:
            continue
        pid = pids.get(span.source)
        if pid is None:
            pid = pids[span.source] = len(pids) + 1
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": span.source},
            })
        args = {k: _jsonable(v) for k, v in span.attrs.items()}
        args["sid"] = span.sid
        if span.parent_sid is not None:
            args["parent"] = span.parent_sid
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": round(span.start * _US, 3),
            "dur": round(span.duration * _US, 3),
            "pid": pid,
            "tid": 0,
            "args": args,
        })
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    if path is not None:
        pathlib.Path(path).write_text(json.dumps(document, indent=1) + "\n")
    return document


# ----------------------------------------------------------------------
# Text views
# ----------------------------------------------------------------------
def render_span_summary(spans: Sequence[Span]) -> str:
    """Aggregate table: per span name, count / total / mean / p95 / max."""
    groups: Dict[str, LatencyHistogram] = {}
    for span in spans:
        if not span.finished:
            continue
        histogram = groups.get(span.name)
        if histogram is None:
            histogram = groups[span.name] = LatencyHistogram()
        histogram.add(span.duration)
    lines = [
        f"{'span':<24} {'count':>6} {'total_s':>10} {'mean_ms':>9} "
        f"{'p95_ms':>9} {'max_ms':>9}"
    ]
    for name in sorted(groups, key=lambda n: -groups[n].total):
        h = groups[name]
        lines.append(
            f"{name:<24} {h.count:>6} {h.total:>10.3f} {h.mean * 1e3:>9.2f} "
            f"{h.percentile(95) * 1e3:>9.2f} {h.max_value * 1e3:>9.2f}"
        )
    if len(lines) == 1:
        lines.append("(no finished spans)")
    return "\n".join(lines)


def render_flame(spans: Sequence[Span]) -> str:
    """Indented tree of the ten longest root spans.  Span ids count per
    tracer, so a child is looked up under its tracer and parent id."""
    finished = [s for s in spans if s.finished]
    children: Dict[Tuple[Tracer, int], List[Span]] = {}
    for span in finished:
        if span.parent_sid is not None:
            children.setdefault((span.tracer, span.parent_sid), []).append(span)
    roots = sorted(
        (s for s in finished if s.parent_sid is None),
        key=lambda s: -s.duration,
    )[:10]
    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        indent = "  " * depth
        attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
        lines.append(
            f"{indent}{span.name:<{max(1, 30 - 2 * depth)}} "
            f"{span.duration * 1e3:>9.2f} ms  [{span.source}] {attrs}".rstrip()
        )
        kids = children.get((span.tracer, span.sid), ())
        for kid in sorted(kids, key=lambda s: s.start):
            walk(kid, depth + 1)

    for root in roots:
        walk(root, 0)
    if not lines:
        lines.append("(no finished spans)")
    return "\n".join(lines)
