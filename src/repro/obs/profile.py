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

A dispatch only counts the ``(kind, owner name)`` pair; the three
buckets are derived from those counts when they are read.  Counts are
deterministic for a fixed seed, so the report is byte-identical across
reruns.
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
    engine then routes every dispatch through :meth:`dispatch`, which
    counts ``(kind, owner name)`` pairs.  The three buckets are derived
    from those counts when read.
    """

    __slots__ = ("pairs",)

    def __init__(self) -> None:
        #: ``(event kind, the callback owner's name or None)`` -> events.
        self.pairs: Dict[Tuple[str, Any], int] = {}

    # ------------------------------------------------------------------
    def install(self, sim: Any) -> "EngineProfiler":
        sim.profiler = self
        return self

    # ------------------------------------------------------------------
    def dispatch(self, fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        """Run ``fn(*args)`` and count the event.

        Called by the engine's profiled dispatch loop; the engine has
        already popped the event and advanced the clock.
        """
        fn(*args)
        pair = (getattr(fn, "__qualname__", None) or type(fn).__name__,
                getattr(getattr(fn, "__self__", None), "name", None))
        pairs = self.pairs
        pairs[pair] = pairs.get(pair, 0) + 1

    @property
    def events(self) -> int:
        """Events dispatched."""
        return sum(self.pairs.values())

    def _buckets(self) -> Tuple[Dict[str, int], Dict[str, int],
                                Dict[str, int]]:
        """``(by kind, by task source, by subsystem)``."""
        by_kind: Dict[str, int] = {}
        by_source: Dict[str, int] = {}
        by_subsystem: Dict[str, int] = {}
        for (kind, source), count in self.pairs.items():
            if not isinstance(source, str) or not source:
                source = "(callback)"
            for bucket, name in ((by_kind, kind), (by_source, source),
                                 (by_subsystem, _subsystem(source))):
                bucket[name] = bucket.get(name, 0) + count
        return by_kind, by_source, by_subsystem

    @property
    def by_kind(self) -> Dict[str, int]:
        return self._buckets()[0]

    @property
    def by_source(self) -> Dict[str, int]:
        return self._buckets()[1]

    @property
    def by_subsystem(self) -> Dict[str, int]:
        return self._buckets()[2]

    # ------------------------------------------------------------------
    def merge_from(self, other: "EngineProfiler") -> "EngineProfiler":
        """Fold another profiler's counts into this one (sweep merges)."""
        for pair, count in other.pairs.items():
            self.pairs[pair] = self.pairs.get(pair, 0) + count
        return self

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able state: the event count and the three buckets."""
        by_kind, by_source, by_subsystem = self._buckets()
        return {
            "events": self.events,
            "by_kind": dict(sorted(by_kind.items())),
            "by_source": dict(sorted(by_source.items())),
            "by_subsystem": dict(sorted(by_subsystem.items())),
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
        by_kind, by_source, by_subsystem = self._buckets()
        sections = [
            f"engine profile: {self.events} events dispatched",
            "",
        ]
        sections.extend(self._render_counts(
            "by subsystem (shard candidates)", by_subsystem,
        ))
        sections.append("")
        sections.extend(self._render_counts("by event kind", by_kind))
        sections.append("")
        sections.extend(self._render_counts("by task source", by_source))
        return "\n".join(sections)
