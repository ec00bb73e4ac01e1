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
from typing import Any, Callable, Generator, List, Optional

from ..sim import Effect, spawn
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

    Every ``poll_period`` it asks the thesis's question — has the owner
    come back while foreign processes run here?  A poll is a bare
    callback that re-arms itself; the ``evictiond`` task sits parked on
    it and is resumed, within the poll's event, only when the answer is
    yes, to run the eviction, after which it parks on the next poll.
    An idle host's daemon task therefore runs once, at its start.

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
            yield _Poll(self)
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


class _Poll(Effect):
    """What the ``evictiond`` task waits on: polls every ``poll_period``,
    each one timed event that resumes the task only if it must evict.

    The first poll is armed when the task yields this, and each poll
    that finds nothing to do arms the next, so every poll takes its
    sequence number where a ``Sleep(poll_period)`` in the task's loop
    would have taken it."""

    __slots__ = ("daemon", "_waiter", "_handle")

    def __init__(self, daemon: EvictionDaemon):
        self.daemon = daemon
        # _waiter and _handle are set by bind().

    def bind(self, waiter: Any) -> None:
        self._waiter = waiter
        self._arm()

    def _arm(self) -> None:
        self._handle = self._waiter.sim.schedule(
            self.daemon.poll_period, self._poll
        )

    def _poll(self) -> None:
        daemon = self.daemon
        if daemon._user_returned() and daemon.manager.kernel.foreign_pcbs():
            self._waiter._resume(None)
        else:
            self._arm()

    def cancel(self, waiter: Any) -> None:
        self._handle.cancel()
