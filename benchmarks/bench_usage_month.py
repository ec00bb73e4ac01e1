"""E10 — Production usage statistics (thesis ch. 8).

The thesis reports a month of production use: remote execs and
evictions in the thousands, yet total processor utilization of just
2.3 % — the cluster is mostly idle capacity that migration lets users
harvest.  We drive a live cluster through a compressed window (a
simulated working day across 10 hosts) with the full stack running —
activity traces, migd, pmake-style batches, eviction — and report the
same rows, plus the paper's headline utilization band.
"""

from __future__ import annotations

from repro import SpriteCluster
from repro.loadsharing import LoadSharingService
from repro.obs import Table
from repro.workloads import ActivityModel, UsageSimulation

from common import run_simulated

HOSTS = 10
DURATION = 8 * 3600.0     # one working day, compressed


def run_window():
    cluster = SpriteCluster(workstations=HOSTS, start_daemons=True, seed=3)
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.standard_images()
    usage = UsageSimulation(
        cluster,
        service,
        duration=DURATION,
        activity=ActivityModel(seed=17),
        think_time=120.0,
        batch_probability=0.08,
        batch_width=4,
        batch_unit_cpu=180.0,
        seed=17,
    )
    report = usage.run()
    return report


def build_artifacts():
    report = run_window()
    table = Table(
        title="E10: usage statistics over a simulated working day "
              "(paper's month: thousands of remote execs, 2.3% utilization)",
        columns=["metric", "value"],
    )
    for key, value in report.rows().items():
        table.add_row(key, value)
    return table, report


def test_e10_usage_window(benchmark, archive):
    table, report = run_simulated(benchmark, build_artifacts)
    archive("E10_usage", table.render())
    # The shape of production use: work happened, some of it remote,
    # evictions occurred, and the cluster still sat mostly idle.
    assert report.interactive_jobs > 50
    assert report.remote_execs > 0
    assert report.migrations_total >= report.remote_execs
    assert report.evictions >= 1
    assert report.processor_utilization < 15.0      # mostly idle capacity
    assert report.mean_idle_fraction > 0.4
