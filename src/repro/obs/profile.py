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

Counts are deterministic for a fixed seed, so the default report is
byte-identical across reruns.  Wall-clock timing is *optional*
(``timing=True``) and is deliberately excluded from
:meth:`EngineProfiler.render` unless asked for, keeping the
deterministic report free of host noise.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["EngineProfiler"]

_DIGITS = "0123456789"


def _subsystem(source: str) -> str:
    """``rpc-server:ws3`` -> ``rpc-server``; ``worker12`` -> ``worker``."""
    head = source.split(":", 1)[0]
    return head.rstrip(_DIGITS) or head


class EngineProfiler:
    """Per-dispatch attribution of engine events.

    Install with :meth:`install` (or assign ``sim.profiler``); the
    engine then routes every dispatch through :meth:`dispatch`.  With
    ``timing=True`` each bucket also accumulates host wall-clock
    seconds — useful interactively, never part of the deterministic
    report unless explicitly requested.
    """

    __slots__ = ("timing", "events", "by_kind", "by_source", "by_subsystem",
                 "wall_by_kind", "wall_by_subsystem")

    def __init__(self, timing: bool = False):
        self.timing = timing
        self.events = 0
        self.by_kind: Dict[str, int] = {}
        self.by_source: Dict[str, int] = {}
        self.by_subsystem: Dict[str, int] = {}
        self.wall_by_kind: Dict[str, float] = {}
        self.wall_by_subsystem: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def install(self, sim: Any) -> "EngineProfiler":
        sim.profiler = self
        return self

    @staticmethod
    def uninstall(sim: Any) -> None:
        sim.profiler = None

    # ------------------------------------------------------------------
    def dispatch(self, fn: Callable[..., None], args: Tuple[Any, ...]) -> None:
        """Run ``fn(*args)`` and attribute the event.

        Called by the engine's profiled dispatch loop; the engine has
        already popped the event and advanced the clock.
        """
        if self.timing:
            start = time.perf_counter()  # lint: disable=determinism-wallclock(profiler wall time is offline metadata, never sim-visible)
            fn(*args)
            wall = time.perf_counter() - start  # lint: disable=determinism-wallclock(profiler wall time is offline metadata, never sim-visible)
        else:
            fn(*args)
            wall = 0.0
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
        if self.timing:
            self.wall_by_kind[kind] = self.wall_by_kind.get(kind, 0.0) + wall
            self.wall_by_subsystem[subsystem] = (
                self.wall_by_subsystem.get(subsystem, 0.0) + wall
            )

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
        for mine_w, theirs_w in (
            (self.wall_by_kind, other.wall_by_kind),
            (self.wall_by_subsystem, other.wall_by_subsystem),
        ):
            for key, wall in theirs_w.items():
                mine_w[key] = mine_w.get(key, 0.0) + wall
        return self

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able state (counts always; wall only when timed)."""
        payload: Dict[str, Any] = {
            "events": self.events,
            "by_kind": dict(sorted(self.by_kind.items())),
            "by_source": dict(sorted(self.by_source.items())),
            "by_subsystem": dict(sorted(self.by_subsystem.items())),
        }
        if self.timing:
            payload["wall_by_kind"] = dict(sorted(self.wall_by_kind.items()))
            payload["wall_by_subsystem"] = dict(
                sorted(self.wall_by_subsystem.items())
            )
        return payload

    # ------------------------------------------------------------------
    def _render_counts(
        self, title: str, counts: Dict[str, int],
        walls: Optional[Dict[str, float]], limit: int,
    ) -> List[str]:
        total = self.events or 1
        lines = [f"{title}:"]
        header = f"  {'name':<32} {'events':>10} {'%':>6}"
        if walls is not None:
            header += f" {'wall_s':>10}"
        lines.append(header)
        rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, count in rows[:limit]:
            line = f"  {name:<32} {count:>10} {100.0 * count / total:>6.1f}"
            if walls is not None:
                line += f" {walls.get(name, 0.0):>10.4f}"
            lines.append(line)
        dropped = max(0, len(rows) - limit)
        if dropped:
            lines.append(f"  ... {dropped} more row(s) not shown")
        return lines

    def render(self, limit: int = 20, include_wall: bool = False) -> str:
        """The "what to shard" report.

        Counts only by default — byte-identical across fixed-seed
        reruns.  ``include_wall=True`` (requires ``timing=True``) adds
        host wall-clock columns for interactive use.
        """
        wall_kind = self.wall_by_kind if include_wall and self.timing else None
        wall_sub = (
            self.wall_by_subsystem if include_wall and self.timing else None
        )
        sections = [
            f"engine profile: {self.events} events dispatched",
            "",
        ]
        sections.extend(self._render_counts(
            "by subsystem (shard candidates)", self.by_subsystem,
            wall_sub, limit,
        ))
        sections.append("")
        sections.extend(self._render_counts(
            "by event kind", self.by_kind, wall_kind, limit,
        ))
        sections.append("")
        sections.extend(self._render_counts(
            "by task source", self.by_source, None, limit,
        ))
        return "\n".join(sections)
