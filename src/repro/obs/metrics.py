"""Per-host and cluster-wide metrics: counters, gauges, timers, series.

The thesis's evaluation aggregates everything per host and per cluster
— migrations started/refused, forwarded kernel calls, RPC traffic by
service, freeze-time distributions, month-long load traces.  This
module is the registry those numbers live in:

* :class:`Counter` — monotone event counts, labelled by host address
  (``host=None`` is the cluster-wide/unlabelled series).
* :class:`Gauge` — last-value-wins instantaneous readings (load
  averages, queue depths).
* :class:`Timer` — duration accumulators backed by
  :class:`LatencyHistogram` (geometric buckets, microseconds to hours:
  percentiles are approximate within one bucket width — plenty for
  shape comparisons), so percentile summaries come out without storing
  every sample.
* :class:`MetricsSampler` — polls registered probes on a sim-time
  interval and appends ``(time, value)`` points to the registry's time
  series, the shape the utilization plots consume.

The registry is pure bookkeeping: nothing here schedules events or
touches the simulation except the sampler, a bare self-rescheduling
callback (no task frame per tick).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "Timer",
    "MetricsRegistry",
    "MetricsSampler",
]

#: Registry key: (metric name, host address or None for cluster-wide).
Key = Tuple[str, Optional[int]]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "host", "value")

    def __init__(self, name: str, host: Optional[int]):
        self.name = name
        self.host = host
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """An instantaneous reading (last value wins)."""

    __slots__ = ("name", "host", "value")

    def __init__(self, name: str, host: Optional[int]):
        self.name = name
        self.host = host
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class LatencyHistogram:
    """Geometric-bucket histogram over positive durations (seconds)."""

    def __init__(self, min_value: float = 1e-6, factor: float = 1.5):
        if min_value <= 0 or factor <= 1:
            raise ValueError("need min_value > 0 and factor > 1")
        self.min_value = min_value
        self.factor = factor
        self._counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    # ------------------------------------------------------------------
    def _bucket(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        return 1 + int(math.log(value / self.min_value) / math.log(self.factor))

    def _bucket_upper(self, index: int) -> float:
        return self.min_value * (self.factor ** index)

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative duration: {value}")
        index = self._bucket(value)
        self._counts[index] = self._counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.max_value = max(self.max_value, value)

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (0 < q <= 100)."""
        if not 0 < q <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if self.count == 0:
            return 0.0
        target = math.ceil(self.count * q / 100.0)
        seen = 0
        for index in sorted(self._counts):
            seen += self._counts[index]
            if seen >= target:
                return min(self._bucket_upper(index), self.max_value)
        return self.max_value

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max_value,
        }

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """In-place merge (buckets must match)."""
        if (other.min_value, other.factor) != (self.min_value, self.factor):
            raise ValueError("cannot merge histograms with different buckets")
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self.max_value = max(self.max_value, other.max_value)
        return self

    @classmethod
    def merge_all(
        cls, histograms: Iterable["LatencyHistogram"]
    ) -> "LatencyHistogram":
        """A fresh histogram holding the union of ``histograms``.

        Used for cluster-wide rollups of per-host timers; the inputs
        are left untouched.  An empty iterable yields an empty
        histogram with default buckets.
        """
        merged = None
        for histogram in histograms:
            if merged is None:
                merged = cls(histogram.min_value, histogram.factor)
            merged.merge(histogram)
        return merged if merged is not None else cls()


class Timer:
    """A duration accumulator with histogram-backed percentiles."""

    __slots__ = ("name", "host", "histogram")

    def __init__(self, name: str, host: Optional[int]):
        self.name = name
        self.host = host
        self.histogram = LatencyHistogram()

    def observe(self, seconds: float) -> None:
        self.histogram.add(seconds)

    def summary(self) -> Dict[str, float]:
        return self.histogram.summary()


class MetricsRegistry:
    """Get-or-create store for counters/gauges/timers plus time series."""

    def __init__(self) -> None:
        self.counters: Dict[Key, Counter] = {}
        self.gauges: Dict[Key, Gauge] = {}
        self.timers: Dict[Key, Timer] = {}
        #: Sampled time series: key -> [(sim_time, value), ...].
        self.series: Dict[Key, List[Tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, host: Optional[int] = None) -> Counter:
        key = (name, host)
        found = self.counters.get(key)
        if found is None:
            found = self.counters[key] = Counter(name, host)
        return found

    def gauge(self, name: str, host: Optional[int] = None) -> Gauge:
        key = (name, host)
        found = self.gauges.get(key)
        if found is None:
            found = self.gauges[key] = Gauge(name, host)
        return found

    def timer(self, name: str, host: Optional[int] = None) -> Timer:
        key = (name, host)
        found = self.timers.get(key)
        if found is None:
            found = self.timers[key] = Timer(name, host)
        return found

    # ------------------------------------------------------------------
    # Cluster-wide views
    # ------------------------------------------------------------------
    def total(self, name: str) -> int:
        """Sum of a counter across all host labels."""
        return sum(c.value for (n, _h), c in self.counters.items() if n == name)

    def merged_timer(self, name: str) -> LatencyHistogram:
        """All hosts' samples of one timer, merged into one histogram."""
        return LatencyHistogram.merge_all(
            timer.histogram
            for (n, _h), timer in self.timers.items()
            if n == name
        )

    # ------------------------------------------------------------------
    # Time series
    # ------------------------------------------------------------------
    def sample_point(
        self, name: str, host: Optional[int], time: float, value: float
    ) -> None:
        key = (name, host)
        points = self.series.get(key)
        if points is None:
            points = self.series[key] = []
        points.append((time, value))

    # ------------------------------------------------------------------
    # Cross-registry merges (sweep aggregation)
    # ------------------------------------------------------------------
    def merge_from(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry in place.

        Counters add; timers merge their histograms (via
        :meth:`LatencyHistogram.merge`, so bucket layouts must match —
        they always do for registries built by this library); series
        points append in call order; gauges are last-write-wins, so the
        *later* registry's reading survives.  Callers wanting a
        fingerprint-stable aggregate must fold registries in a
        deterministic order — :func:`repro.snapshot.sweep.forked_map`
        merges in cell-index order regardless of worker count.
        """
        for key, counter in other.counters.items():
            self.counter(*key).inc(counter.value)
        for key, gauge in other.gauges.items():
            self.gauge(*key).set(gauge.value)
        for key, timer in other.timers.items():
            self.timer(*key).histogram.merge(timer.histogram)
        for key, points in other.series.items():
            mine = self.series.get(key)
            if mine is None:
                mine = self.series[key] = []
            mine.extend(points)
        return self

    @classmethod
    def merge_all(cls, registries: Any) -> "MetricsRegistry":
        """A fresh registry holding the fold of ``registries`` (in
        iteration order)."""
        merged = cls()
        for registry in registries:
            if registry is not None:
                merged.merge_from(registry)
        return merged

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as plain JSON-able data."""

        def label(key: Key) -> str:
            name, host = key
            return name if host is None else f"{name}@{host}"

        return {
            "counters": {label(k): c.value for k, c in sorted(self.counters.items())},
            "gauges": {label(k): g.value for k, g in sorted(self.gauges.items())},
            "timers": {label(k): t.summary() for k, t in sorted(self.timers.items())},
            "series": {
                label(k): [[round(t, 6), v] for t, v in points]
                for k, points in sorted(self.series.items())
            },
        }


class MetricsSampler:
    """Polls probes into the registry's time series on a sim interval.

    A bare self-rescheduling callback, so each tick is one event with
    no task frame.  Like the cluster's ticker (load samples and eviction
    polls), it keeps the event queue non-empty forever — drive bounded
    runs with ``run(until=...)`` or ``run_until_complete``, never an
    unbounded ``run()``.
    """

    def __init__(self, sim: Any, registry: MetricsRegistry, period: float = 5.0):
        if period <= 0:
            raise ValueError("sample period must be positive")
        self.sim = sim
        self.registry = registry
        self.period = period
        self.samples_taken = 0
        #: (name, host, zero-arg probe) triples polled every tick.
        self._probes: List[Tuple[str, Optional[int], Callable[[], float]]] = []
        self._started = False

    def add_probe(
        self, name: str, host: Optional[int], probe: Callable[[], float]
    ) -> None:
        self._probes.append((name, host, probe))

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.period, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        sample = self.registry.sample_point
        for name, host, probe in self._probes:
            sample(name, host, now, float(probe()))
        self.samples_taken += 1
        self.sim.schedule(self.period, self._tick)
