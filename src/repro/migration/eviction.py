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

from ..sim import Effect, EventHandle, Ticker, spawn
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
    callback, not a task resume: the ``evictiond`` task sits parked on
    it and is resumed, within the poll's event, only when the answer is
    yes, to run the eviction, after which it parks on the next poll.
    An idle host's daemon task therefore runs once, at its start.  In a
    :class:`~repro.cluster.SpriteCluster` an idle host's polls ride the
    cluster's ``ticker`` with the load samplers, so an idle cluster's
    polls and samples cost one event a second between them.

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
        #: The cluster's ticker, which a poll joins when it exactly can
        #: (set by :class:`~repro.cluster.SpriteCluster`); ``None`` arms
        #: every poll on a timer of its own.
        self.ticker: Optional[Ticker] = None
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
    each of which resumes the task only if it must evict.

    A poll that finds nothing to do re-arms, so every poll takes its
    sequence number where a ``Sleep(poll_period)`` in the task's loop
    would have taken it.  It re-arms as a member of the daemon's
    ``ticker`` if :meth:`Ticker.join` accepts it when bound (the first
    poll of a cluster's daemon does, at start), else on its own timer.
    A poll that resumes the task leaves the ticker."""

    __slots__ = ("daemon", "_waiter", "_handle")

    def __init__(self, daemon: EvictionDaemon):
        self.daemon = daemon
        self._handle: Optional[EventHandle] = None
        # _waiter is set by bind() and dropped by cancel().

    def bind(self, waiter: Any) -> None:
        self._waiter = waiter
        ticker = self.daemon.ticker
        if ticker is None or not self._join(ticker):
            self._arm()

    def _join(self, ticker: Ticker) -> bool:
        # A typed receiver: ``join`` is on the call graph's by-name
        # fallback blocklist, so an untyped ``ticker.join`` has no edge.
        return ticker.join(self._member, self.daemon.poll_period)

    def _arm(self) -> None:
        self._handle = self._waiter.sim.schedule(
            self.daemon.poll_period, self._poll
        )

    def _evicts(self) -> bool:
        """One poll: resume the task, and say so, if it must evict —
        if the owner is present or has typed since the last poll, while
        foreign processes run here."""
        daemon = self.daemon
        host = daemon.host
        returned = host.user_present
        if host.last_input > daemon._last_seen_input:
            daemon._last_seen_input = host.last_input
            returned = True
        if returned and daemon.manager.kernel.foreign_pcbs():
            self._waiter._resume(None)
            return True
        return False

    def _poll(self) -> None:
        if not self._evicts():
            self._arm()

    def _member(self) -> bool:
        """The ticker's call: true (leave) once cancelled or evicting."""
        return self._waiter is None or self._evicts()

    def cancel(self, waiter: Any) -> None:
        if self._handle is not None:
            self._handle.cancel()
        self._waiter = None
