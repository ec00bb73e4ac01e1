"""Eviction: reclaiming a workstation for its returning user (ch. 8).

When input arrives at a host running foreign processes, Sprite evicts
them — migrates every foreign process back to its home — so the owner
never competes with guests for more than a moment.  The home machine
always accepts its own processes, so eviction cannot fail; from home
the load-sharing layer may immediately re-export them elsewhere.

:class:`EvictionDaemon` watches for the input signal; the transfer
mechanics are :meth:`MigrationManager.evict_all_foreign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional

from ..sim import Effect, Sleep, spawn
from ..obs.spans import EVICT_RECLAIM
from .mechanism import MigrationManager, MigrationRecord

__all__ = ["EvictionDaemon", "EvictionEvent"]


@dataclass
class EvictionEvent:
    """One user-return incident and how long the reclaim took."""

    time: float
    host: int
    victims: int
    #: Seconds from the triggering input until the last foreign process
    #: was gone (the interval the thesis measures for responsiveness).
    reclaim_seconds: float
    records: List[MigrationRecord] = field(default_factory=list)


class EvictionDaemon:
    """Watches a host and evicts foreign processes when its user returns.

    ``on_evicted`` (if set) is called with each batch of migration
    records — the load-sharing layer uses it to re-home or re-export
    the displaced work.
    """

    def __init__(
        self,
        manager: MigrationManager,
        start: bool = True,
    ):
        self.manager = manager
        self.host = manager.host
        self.poll_period = manager.params.eviction_grace
        self.on_evicted: Optional[Callable[[List[MigrationRecord]], None]] = None
        self.events: List[EvictionEvent] = []
        self.failed_evictions = 0
        self._last_seen_input = float("-inf")
        if start:
            spawn(
                self.host.sim,
                self._watch,
                name=f"evictiond:{self.host.name}",
                daemon=True,
            )

    # ------------------------------------------------------------------
    def _watch(self) -> Generator[Effect, None, None]:
        while True:
            yield Sleep(self.poll_period)
            if self._user_returned() and self.manager.kernel.foreign_pcbs():
                try:
                    yield from self.evict_now()
                except Exception:  # noqa: BLE001 - keep watching; a home
                    # may be temporarily unreachable, retry next period.
                    self.failed_evictions += 1

    def _user_returned(self) -> bool:
        newer = self.host.last_input > self._last_seen_input
        if newer:
            self._last_seen_input = self.host.last_input
        return self.host.user_present or newer

    # ------------------------------------------------------------------
    def evict_now(self) -> Generator[Effect, None, EvictionEvent]:
        """Evict every foreign process immediately; returns the event."""
        started = self.host.sim.now
        records = yield from self.manager.evict_all_foreign()
        event = EvictionEvent(
            time=started,
            host=self.host.address,
            victims=len(records),
            reclaim_seconds=self.host.sim.now - started,
            records=records,
        )
        self.events.append(event)
        tracer = self.host.tracer
        if tracer.spans_enabled:
            tracer.record_span(
                EVICT_RECLAIM,
                f"evict:{self.host.name}",
                started,
                self.host.sim.now,
                victims=event.victims,
            )
        if self.host.tracer.enabled:
            self.host.tracer.emit(
                self.host.sim.now,
                f"evict:{self.host.name}",
                "evicted",
                victims=event.victims,
                seconds=round(event.reclaim_seconds, 6),
            )
        if self.on_evicted is not None and records:
            self.on_evicted(records)
        return event
