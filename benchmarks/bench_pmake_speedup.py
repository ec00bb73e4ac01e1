"""E5 — pmake speedup vs. number of hosts (thesis ch. 7 figure).

The flagship result: parallel compilation across idle workstations.
The curve rises with the job limit but flattens well below linear —
Amdahl's sequential link step plus file-server contention (name
lookups) bound it, and the thesis reports ~5x at 12-way parallelism
(≈300 % effective utilization).
"""

from __future__ import annotations

from repro import SpriteCluster
from repro.loadsharing import LoadSharingService
from repro.obs import Series, Table
from repro.workloads import Pmake, SourceTree

from common import run_simulated

FILES = 16
COMPILE_CPU = 8.0
LINK_CPU = 4.0
JOB_COUNTS = (1, 2, 4, 8, 12)


def build_once(jobs: int):
    cluster = SpriteCluster(workstations=14, start_daemons=True)
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.standard_images()
    tree = SourceTree(files=FILES, compile_cpu=COMPILE_CPU, link_cpu=LINK_CPU)
    tree.populate(cluster)
    cluster.run(until=45.0)
    host = cluster.hosts[0]
    client = service.mig_client(host) if jobs > 1 else None
    pmake = Pmake(tree, client=client, max_jobs=jobs)

    def coordinator(proc):
        result = yield from pmake.run(proc)
        return result

    pcb, _ = host.spawn_process(coordinator, name="pmake")
    lookups_before = cluster.file_server.lookups
    result = cluster.run_until_complete(pcb.task)
    server_util = cluster.server_hosts[0].cpu.utilization()
    return result, cluster.file_server.lookups - lookups_before, server_util


def build_artifacts():
    figure = Series(
        title="E5: pmake speedup vs degree of parallelism "
              "(paper: ~5x at 12-way, server-bound)",
        x_label="max parallel jobs",
        y_label="speedup",
    )
    table = Table(
        title="E5: pmake parallel compilation",
        columns=["jobs", "elapsed (s)", "speedup", "remote jobs",
                 "server lookups", "server cpu util"],
    )
    sequential = None
    speedups = {}
    for jobs in JOB_COUNTS:
        result, lookups, server_util = build_once(jobs)
        if sequential is None:
            sequential = result.elapsed
        speedup = sequential / result.elapsed
        speedups[jobs] = speedup
        figure.add_point("pmake", jobs, speedup)
        table.add_row(jobs, result.elapsed, speedup, result.remote_jobs,
                      lookups, server_util)
    return figure, table, speedups


def test_e5_pmake_speedup(benchmark, archive):
    figure, table, speedups = run_simulated(benchmark, build_artifacts)
    archive("E5_pmake_speedup", figure.render() + "\n\n" + table.render())
    # Monotone-ish rise then saturation; sublinear at high parallelism.
    assert speedups[2] > 1.5
    assert speedups[8] > speedups[2]
    assert speedups[12] < 8.0           # Amdahl + server contention ceiling
    assert speedups[12] >= 0.8 * speedups[8]  # flattening, not collapsing
