"""S1 — Network-speed sensitivity of the VM-policy trade-off.

The thesis's future-work discussion anticipates faster networks.  The
design question it changes: flush-to-server pays twice for dirty pages
(flush to the server, demand-page back) while full-copy moves them once
— Sprite still wins at 10 Mb/s because only *dirty* pages move during
the freeze.  As bandwidth grows, the monolithic copy's freeze shrinks
toward the state-packaging floor and the policies converge.  The sweep
quantifies where.
"""

from __future__ import annotations

from repro import MB, ClusterParams, SpriteCluster
from repro.obs import ClusterObservability, MetricsRegistry, Series, Table
from repro.sim import Sleep, spawn
from repro.snapshot import forked_map

from common import run_simulated, sweep_workers

BANDWIDTHS_MBPS = (1.25, 5.0, 20.0, 80.0)   # 10 Mb/s ... ~gigabit era
VM_BYTES = 4 * MB
DIRTY = MB


def migrate_at_bandwidth(policy: str, mbytes_per_second: float):
    params = ClusterParams().clone(net_bandwidth=mbytes_per_second * MB)
    cluster = SpriteCluster(
        workstations=2, start_daemons=False, params=params, vm_policy=policy
    )
    obs = ClusterObservability.install(cluster, spans=False)
    a, b = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.use_memory(VM_BYTES)
        yield from proc.dirty_memory(DIRTY)
        yield from proc.compute(60.0)
        return 0

    pcb, _ = a.spawn_process(job, name="subject")
    records = []

    def driver():
        yield Sleep(1.0)
        record = yield from cluster.managers[a.address].migrate(pcb, b.address)
        records.append(record)

    spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(pcb.task)
    # The scalar plus the cell's metrics registry cross the pipe; the
    # parent folds the registries in cell order (MetricsRegistry.merge_all).
    return records[0].freeze_time, obs.registry


def build_artifacts():
    figure = Series(
        title="S1: migration freeze vs network bandwidth "
              "(4 MB VM, 1 MB dirty)",
        x_label="bandwidth (MB/s)",
        y_label="freeze time (s)",
    )
    table = Table(
        title="S1: policy sensitivity to network speed",
        columns=["bandwidth (MB/s)", "flush freeze (s)", "full-copy freeze (s)",
                 "ratio full/flush"],
        notes="faster networks erode full-copy's penalty toward the "
              "state-packaging floor",
    )
    cells = [
        (policy, bandwidth)
        for bandwidth in BANDWIDTHS_MBPS
        for policy in ("flush-to-server", "full-copy")
    ]
    # One forked child per (policy, bandwidth) cell; deterministic
    # index-ordered merge (repro.snapshot's sweep primitive), including
    # the merged per-cell metrics registries.
    outcomes = forked_map(
        lambda i: migrate_at_bandwidth(*cells[i]), len(cells),
        workers=sweep_workers(),
    )
    by_cell = {cell: freeze for cell, (freeze, _r) in zip(cells, outcomes)}
    metrics = MetricsRegistry.merge_all(registry for _f, registry in outcomes)
    results = {}
    for bandwidth in BANDWIDTHS_MBPS:
        flush = by_cell[("flush-to-server", bandwidth)]
        full = by_cell[("full-copy", bandwidth)]
        results[bandwidth] = (flush, full)
        figure.add_point("flush-to-server", bandwidth, flush)
        figure.add_point("full-copy", bandwidth, full)
        table.add_row(bandwidth, flush, full, full / flush)
    total = metrics.merged_timer("mig.total").summary()
    table.notes += (
        f"; sweep aggregate: {metrics.total('mig.completed')} migrations, "
        f"{metrics.total('mig.vm_bytes') / MB:.1f} MB of VM shipped, "
        f"median total {total['p50']:.4f}s"
    )
    return figure, table, results


def test_s1_network_sweep(benchmark, archive):
    figure, table, results = run_simulated(benchmark, build_artifacts)
    archive("S1_network_sweep", figure.render() + "\n\n" + table.render())
    slow_flush, slow_full = results[BANDWIDTHS_MBPS[0]]
    fast_flush, fast_full = results[BANDWIDTHS_MBPS[-1]]
    # At Ethernet speed, full-copy freezes several times longer.
    assert slow_full > 2.5 * slow_flush
    # At high bandwidth the gap collapses (both near the state floor).
    assert fast_full < 1.5 * fast_flush
    # Everyone gets faster with bandwidth.
    assert fast_full < slow_full / 10
