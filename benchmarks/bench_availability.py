"""E9 — Host availability over the day (thesis ch. 8 figure).

The thesis's month of measurement: 65–70 % of hosts idle during the
day, rising to ~80 % at night and on weekends.  The activity model
generates a month of per-host console sessions; idleness uses the same
criterion as the kernel (no input for the threshold, low load).
"""

from __future__ import annotations

import numpy as np

from repro.obs import MetricsRegistry, Series, Table
from repro.snapshot import forked_map
from repro.workloads import ActivityModel, idle_fraction_by_hour

from common import run_simulated, sweep_workers

HOSTS = 40
DAYS = 28


def build_artifacts():
    model = ActivityModel(seed=11)
    by_hour = np.asarray(idle_fraction_by_hour(model, hosts=HOSTS, days=DAYS))
    figure = Series(
        title="E9: fraction of hosts idle vs hour of day "
              "(paper: 65-70% by day, ~80% nights/weekends)",
        x_label="hour of day",
        y_label="idle fraction",
    )
    for hour, idle in enumerate(by_hour):
        figure.add_point("all days", hour, float(idle))

    # Weekday vs weekend day-time comparison on raw intervals.  One
    # forked sweep child per host (the model is seeded per host, so
    # the index-ordered merge reproduces the sequential loop exactly).
    duration = DAYS * 86400.0

    def host_busy(index: int):
        intervals = model.generate_intervals(index, duration)
        registry = MetricsRegistry()
        weekday, weekend = [], []
        for day in range(DAYS):
            window = (day * 86400.0 + 9 * 3600.0, day * 86400.0 + 18 * 3600.0)
            frac = model.busy_fraction(intervals, window)
            if day % 7 < 5:
                weekday.append(frac)
                registry.timer("busy.weekday", index).observe(frac)
            else:
                weekend.append(frac)
                registry.timer("busy.weekend", index).observe(frac)
        return (weekday, weekend), registry

    weekday_busy, weekend_busy = [], []
    outcomes = forked_map(host_busy, HOSTS, workers=sweep_workers())
    metrics = MetricsRegistry.merge_all(registry for _p, registry in outcomes)
    for (weekday, weekend), _registry in outcomes:
        weekday_busy.extend(weekday)
        weekend_busy.extend(weekend)
    table = Table(
        title="E9: availability summary",
        columns=["window", "mean idle fraction"],
    )
    day_idle = float(by_hour[9:18].mean())
    night_idle = float(np.concatenate([by_hour[:7], by_hour[22:]]).mean())
    table.add_row("daytime (9-18h)", day_idle)
    table.add_row("night (22-7h)", night_idle)
    table.add_row("weekday working hours", 1.0 - float(np.mean(weekday_busy)))
    table.add_row("weekend working hours", 1.0 - float(np.mean(weekend_busy)))
    weekday_hist = metrics.merged_timer("busy.weekday")
    weekend_hist = metrics.merged_timer("busy.weekend")
    table.notes = (
        f"sweep aggregate over {HOSTS} hosts: "
        f"{weekday_hist.count} weekday / {weekend_hist.count} weekend "
        f"day-samples; p95 weekday busy {weekday_hist.percentile(95):.3f}"
    )
    return figure, table, day_idle, night_idle


def test_e9_availability(benchmark, archive):
    figure, table, day_idle, night_idle = run_simulated(benchmark, build_artifacts)
    archive("E9_availability", figure.render() + "\n\n" + table.render())
    # The paper's bands.
    assert 0.55 < day_idle < 0.80
    assert night_idle > 0.72
    assert night_idle > day_idle
