"""Engine hot-spot profiler: who is consuming the event loop?

ROADMAP item 1 (sharding the cluster across engine partitions) needs an
answer to "which subsystem caps event throughput?" before any
partitioning makes sense.  :class:`EngineProfiler` hooks the
:class:`~repro.sim.engine.Simulator` dispatch loop (opt-in via
``sim.profiler``; an unprofiled run pays one ``is not None`` test) and
attributes every dispatched event three ways:

* **event kind** — the callback's qualified name (``Task._resume``,
  ``_Core._expire``, ``_Receiver._resume`` — a port's receive loop —
  …): what the engine is mechanically doing;
* **task source** — the ``name`` of the bound object the callback
  belongs to, when it has one (``rpc-server:ws3``, ``kernel:ws0``):
  which component asked for it;
* **subsystem** — the source's prefix before ``:`` (``rpc-server``,
  ``kernel``, ``mig``): the shard-granularity rollup.

Counts are deterministic for a fixed seed, so the report is
byte-identical across reruns.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

__all__ = ["EngineProfiler"]

_DIGITS = "0123456789"
#: Rows shown per bucket in :meth:`EngineProfiler.render`.
_ROWS = 20


def _subsystem(source: str) -> str:
    """``rpc-server:ws3`` -> ``rpc-server``; ``worker12`` -> ``worker``."""
    head = source.split(":", 1)[0]
    return head.rstrip(_DIGITS) or head


class EngineProfiler:
    """Per-dispatch attribution of engine events.

    Install with :meth:`install` (or assign ``sim.profiler``); the
    engine then routes every dispatch through :meth:`dispatch`.
    """

    __slots__ = ("events", "by_kind", "by_source", "by_subsystem")

    def __init__(self) -> None:
        self.events = 0
        self.by_kind: Dict[str, int] = {}
        self.by_source: Dict[str, int] = {}
        self.by_subsystem: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def install(self, sim: Any) -> "EngineProfiler":
        sim.profiler = self
        return self

    # ------------------------------------------------------------------
    def dispatch(self, fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        """Run ``fn(*args)`` and attribute the event.

        Called by the engine's profiled dispatch loop; the engine has
        already popped the event and advanced the clock.
        """
        fn(*args)
        self.events += 1
        kind = getattr(fn, "__qualname__", None)
        if kind is None:
            kind = type(fn).__name__
        owner = getattr(fn, "__self__", None)
        source = getattr(owner, "name", None) if owner is not None else None
        if not isinstance(source, str) or not source:
            source = "(callback)"
        subsystem = _subsystem(source)
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.by_source[source] = self.by_source.get(source, 0) + 1
        self.by_subsystem[subsystem] = self.by_subsystem.get(subsystem, 0) + 1

    # ------------------------------------------------------------------
    def merge_from(self, other: "EngineProfiler") -> "EngineProfiler":
        """Fold another profiler's buckets into this one (sweep merges)."""
        self.events += other.events
        for mine, theirs in (
            (self.by_kind, other.by_kind),
            (self.by_source, other.by_source),
            (self.by_subsystem, other.by_subsystem),
        ):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count
        return self

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able state: the event count and the three buckets."""
        return {
            "events": self.events,
            "by_kind": dict(sorted(self.by_kind.items())),
            "by_source": dict(sorted(self.by_source.items())),
            "by_subsystem": dict(sorted(self.by_subsystem.items())),
        }

    # ------------------------------------------------------------------
    def _render_counts(self, title: str, counts: Dict[str, int]) -> List[str]:
        total = self.events or 1
        lines = [f"{title}:", f"  {'name':<32} {'events':>10} {'%':>6}"]
        rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, count in rows[:_ROWS]:
            lines.append(
                f"  {name:<32} {count:>10} {100.0 * count / total:>6.1f}"
            )
        dropped = max(0, len(rows) - _ROWS)
        if dropped:
            lines.append(f"  ... {dropped} more row(s) not shown")
        return lines

    def render(self) -> str:
        """The "what to shard" report, byte-identical across fixed-seed
        reruns."""
        sections = [
            f"engine profile: {self.events} events dispatched",
            "",
        ]
        sections.extend(self._render_counts(
            "by subsystem (shard candidates)", self.by_subsystem,
        ))
        sections.append("")
        sections.extend(self._render_counts("by event kind", self.by_kind))
        sections.append("")
        sections.extend(self._render_counts("by task source", self.by_source))
        return "\n".join(sections)
