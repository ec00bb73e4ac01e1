"""Diurnal user-activity traces (ch. 8, experiment E9).

The availability results in the thesis — 65–70 % of hosts idle during
the day, ~80 % at night and on weekends — come from a month of tracing
real workstations.  We reproduce the statistics with a generative
model: each host's owner alternates *sessions* (at the console, typing)
and *absences*, with the session arrival rate modulated by hour of day
and day of week.

Two consumers:

* :meth:`ActivityModel.generate_intervals` produces the busy intervals
  directly for long horizons — benchmark E9 computes idle fractions
  from these without running the event loop.
* :class:`ActivityDriver` replays a trace into a live simulation,
  injecting ``user_input()`` events that drive availability and
  eviction for the end-to-end experiments (E10).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Generator, List, Sequence, Tuple

from ..kernel import Host
from ..sim import Effect, Sleep, spawn
from ..sim.random import Rng

__all__ = ["ActivityModel", "ActivityDriver", "idle_fraction_by_hour"]

DAY = 24 * 3600.0

_START = itemgetter(0)
_STOP = itemgetter(1)


@dataclass
class ActivityModel:
    """Generates per-host (start, end) console-session intervals.

    ``day_busy_target`` / ``night_busy_target`` are the long-run
    fractions of time an average host's owner is active in each regime;
    defaults are tuned to land on the thesis's availability numbers
    (~32 % busy by day, ~18 % at night, less on weekends).
    """

    seed: int = 0
    session_mean: float = 20 * 60.0        # 20-minute sessions
    day_busy_target: float = 0.32
    night_busy_target: float = 0.18
    weekend_factor: float = 0.55           # weekends are this much busier than never
    day_start_hour: float = 9.0
    day_end_hour: float = 18.0

    def _gap_mean(self, t: float) -> float:
        """Mean absence duration at absolute trace time ``t``."""
        hour = (t % DAY) / 3600.0
        weekday = int(t // DAY) % 7 < 5
        daytime = self.day_start_hour <= hour < self.day_end_hour
        busy = self.day_busy_target if daytime else self.night_busy_target
        if not weekday:
            busy *= self.weekend_factor
        # busy = session / (session + gap)  =>  gap = session*(1-busy)/busy
        return self.session_mean * (1.0 - busy) / max(busy, 1e-3)

    def generate_intervals(
        self, host_index: int, duration: float
    ) -> List[Tuple[float, float]]:
        """Busy intervals for one host over ``duration`` seconds."""
        rng = Rng((self.seed << 16) ^ (host_index * 2654435761 % 2**31))
        intervals: List[Tuple[float, float]] = []
        t = rng.exponential(self._gap_mean(0.0))
        while t < duration:
            session = rng.exponential(self.session_mean)
            stop = min(t + session, duration)
            intervals.append((t, stop))
            t = stop + rng.exponential(self._gap_mean(stop))
        return intervals

    def busy_fraction(
        self, intervals: Sequence[Tuple[float, float]], window: Tuple[float, float]
    ) -> float:
        """Share of ``window`` covered by ``intervals``, whose starts and
        stops must both be sorted (as :meth:`generate_intervals` makes
        them).  Only the intervals that can overlap the window are
        summed: one that stops by ``lo`` or starts at ``hi`` or later
        adds exactly ``0.0``, so the sum is the full walk's, bit for bit."""
        lo, hi = window
        first = bisect_right(intervals, lo, key=_STOP)
        end = bisect_left(intervals, hi, first, key=_START)
        busy = 0.0
        for start, stop in intervals[first:end]:
            busy += max(0.0, min(stop, hi) - max(start, lo))
        return busy / (hi - lo) if hi > lo else 0.0


#: Seconds :func:`idle_fraction_by_hour` extends each busy interval by.
IDLE_GRACE = 300.0


def idle_fraction_by_hour(
    model: ActivityModel,
    hosts: int,
    days: int,
) -> List[float]:
    """Mean fraction of hosts idle for each hour of the day (E9's curve).

    :data:`IDLE_GRACE` extends each busy interval: a host is
    'available' only after the input-idle threshold passes, so short
    gaps inside a session do not count as idleness (matches the
    kernel's criterion).
    """
    duration = days * DAY
    hour_busy = [0.0] * 24
    hour_span = [0.0] * 24
    for index in range(hosts):
        intervals = [
            (start, min(stop + IDLE_GRACE, duration))
            for start, stop in model.generate_intervals(index, duration)
        ]
        for day in range(days):
            for hour in range(24):
                window = (day * DAY + hour * 3600.0, day * DAY + (hour + 1) * 3600.0)
                hour_busy[hour] += model.busy_fraction(intervals, window)
                hour_span[hour] += 1.0
    return [1.0 - busy / max(span, 1.0) for busy, span in zip(hour_busy, hour_span)]


class ActivityDriver:
    """Replays an activity trace into a live simulation.

    During each busy interval the driver marks the user present and
    injects input every :attr:`INPUT_PERIOD` seconds (defeating the
    idle-input criterion and triggering eviction of any foreign
    processes).
    """

    INPUT_PERIOD = 5.0

    def __init__(self, host: Host, intervals: Sequence[Tuple[float, float]]):
        self.host = host
        self.intervals = sorted(intervals)
        spawn(host.sim, self._replay(), name=f"activity:{host.name}", daemon=True)

    def _replay(self) -> Generator[Effect, None, None]:
        for start, stop in self.intervals:
            delay = start - self.host.sim.now
            if delay > 0:
                yield Sleep(delay)
            while self.host.sim.now < stop:
                self.host.user_input()
                yield Sleep(min(self.INPUT_PERIOD, max(stop - self.host.sim.now, 0.01)))
            self.host.user_leaves()
