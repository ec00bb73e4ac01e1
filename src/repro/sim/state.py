"""Per-run mutable state registry.

Every piece of mutable state that belongs to *one simulated run* — id
allocators, sequence counters — must live on the run's
:class:`StateRegistry` (reachable as ``sim.state``) rather than at
module level.  Module-level state leaks across clusters built in the
same process (PR 4 had to reset the stream-id counter by hand to keep
crash-matrix traces byte-identical), and a sweep worker builds one
cluster per cell, one after another.  The ``state-module-mutable``
lint rule (:mod:`repro.analysis.rules_state`) enforces this discipline
statically.

Usage::

    ids = sim.state.counter("fs.stream_ids")   # get-or-create
    stream_id = next(ids)

Registry entries are keyed by dotted names namespaced per subsystem
(``fs.*``, ``baselines.*``, ...); asking twice for the same name
returns the same object, so independent components share one allocator
simply by naming it.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["Counter", "StateRegistry"]


class Counter:
    """A restartable integer allocator (replaces ``itertools.count``
    for id allocation: same protocol, but its value is inspectable)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, start: int = 1):
        self.name = name
        self.value = start

    def __iter__(self) -> "Counter":
        return self

    def __next__(self) -> int:
        value = self.value
        self.value += 1
        return value

    def __repr__(self) -> str:
        return f"<Counter {self.name} next={self.value}>"


class StateRegistry:
    """All run-scoped mutable state, by name; one per :class:`Simulator`.

    The registry is deliberately dumb — a dict of named
    :class:`Counter` entries, no per-subsystem special cases.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[str, Any] = {}

    def counter(self, name: str, start: int = 1) -> Counter:
        """Get-or-create the named counter (``start`` applies on create)."""
        entry = self._entries.get(name)
        if entry is None:
            entry = self._entries[name] = Counter(name, start=start)
        return entry

    def get(self, name: str) -> Any:
        return self._entries[name]

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"<StateRegistry {self.names()}>"
