"""E6 — Simulation-farm effective utilization (thesis ch. 7).

100 independent simulations farmed across idle hosts reached > 800 %
effective processor utilization in the thesis, against ~300 % for the
12-way parallel compile — embarrassingly parallel work with almost no
shared-file traffic scales with the host pool.
"""

from __future__ import annotations

from repro import SpriteCluster
from repro.loadsharing import LoadSharingService
from repro.obs import Table
from repro.workloads import Pmake, SimFarm, SourceTree

from common import run_simulated

HOSTS = 14
SIM_JOBS = 40
SIM_CPU = 60.0


def run_farm():
    cluster = SpriteCluster(
        workstations=HOSTS,
        start_daemons=True,
        params=None,
    )
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.standard_images()
    cluster.run(until=45.0)
    host = cluster.hosts[0]
    farm = SimFarm(service.mig_client(host), jobs=SIM_JOBS, cpu_seconds=SIM_CPU)

    def coordinator(proc):
        result = yield from farm.run(proc)
        return result

    pcb, _ = host.spawn_process(coordinator, name="farm")
    return cluster.run_until_complete(pcb.task)


def run_compile_reference():
    """The 12-way compile's utilization, for the paper's contrast."""
    cluster = SpriteCluster(workstations=HOSTS, start_daemons=True)
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.standard_images()
    tree = SourceTree(files=16, compile_cpu=8.0, link_cpu=4.0)
    tree.populate(cluster)
    cluster.run(until=45.0)
    host = cluster.hosts[0]
    pmake = Pmake(tree, client=service.mig_client(host), max_jobs=12)

    def coordinator(proc):
        result = yield from pmake.run(proc)
        return result

    pcb, _ = host.spawn_process(coordinator, name="pmake")
    result = cluster.run_until_complete(pcb.task)
    total_cpu = 16 * 8.0 + 4.0
    return 100.0 * total_cpu / result.elapsed


def build_artifacts():
    farm = run_farm()
    compile_util = run_compile_reference()
    table = Table(
        title="E6: effective processor utilization "
              "(paper: >800% for 100 sims, ~300% for 12-way compile)",
        columns=["workload", "jobs", "elapsed (s)",
                 "effective utilization (%)"],
    )
    table.add_row("simulation farm", farm.jobs, farm.elapsed,
                  farm.effective_utilization)
    table.add_row("12-way pmake", 17, "-", compile_util)
    return table, farm, compile_util


def test_e6_simfarm_utilization(benchmark, archive):
    table, farm, compile_util = run_simulated(benchmark, build_artifacts)
    archive("E6_simfarm", table.render())
    # The farm's utilization dwarfs the compile's, as in the paper.
    assert farm.effective_utilization > 1.8 * compile_util
    # And approaches the host-pool size (x100%).
    assert farm.effective_utilization > 500.0
    assert farm.remote_jobs > SIM_JOBS // 2
