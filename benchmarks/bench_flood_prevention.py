"""A3 — Flood-prevention ablation (thesis §3/6, [BSW89]).

MOSIX-style flood prevention: a host that just accepted a migration
counts the arrival against its load immediately, so a burst of
selections made from (identically) stale information cannot dogpile one
idle host.  The ablation removes the acceptance bias and the guest cap
and lets concurrent requesters pile onto whichever host the stale data
likes best.
"""

from __future__ import annotations

from repro import SpriteCluster
from repro.loadsharing import LoadSharingService
from repro.obs import Table
from repro.sim import run_until_complete, spawn

from common import run_simulated

REQUESTERS = 6
JOB_CPU = 30.0


def run_case(flood_prevention: bool):
    cluster = SpriteCluster(workstations=REQUESTERS + 3, start_daemons=True, seed=7)
    service = LoadSharingService(cluster, architecture="probabilistic")
    cluster.standard_images()
    if not flood_prevention:
        # Ablate: accept any number of guests, bias nothing.
        for host in cluster.hosts:
            cluster.managers[host.address].accept_hook = (
                lambda args, host=host: host.input_idle_seconds()
                >= host.params.idle_input_threshold
            )
    cluster.run(until=90.0)   # gossip converges

    def job(proc):
        yield from proc.compute(JOB_CPU)
        return proc.pcb.current

    finals = []

    def requester(index):
        host = cluster.hosts[index]
        selector = service.selectors[host.address]
        granted = yield from selector.request(1)
        if granted:
            pcb, _ = host.spawn_process(
                _exec_job_factory(job, granted[0]), name=f"job{index}"
            )
        else:
            pcb, _ = host.spawn_process(job, name=f"job{index}")
        result = yield pcb.task.join()
        finals.append(result)

    tasks = [
        spawn(cluster.sim, requester(i), name=f"req{i}")
        for i in range(REQUESTERS)
    ]

    def joiner():
        for task in tasks:
            yield task.join()

    start = cluster.sim.now
    run_until_complete(cluster.sim, joiner(), name="joiner")
    makespan = cluster.sim.now - start
    from collections import Counter

    placement = Counter(finals)
    max_guests = max(placement.values())
    return {
        "makespan": makespan,
        "max_on_one_host": max_guests,
        "distinct_hosts": len(placement),
    }


def _exec_job_factory(job, target):
    from repro.migration import MigrationRefused

    def runner(proc):
        try:
            yield from proc.exec(job, host=target, image_path="/bin/sim")
        except MigrationRefused:
            pass
        yield from proc.exec(job, image_path="/bin/sim")

    return runner


def build_artifacts():
    with_fp = run_case(flood_prevention=True)
    without_fp = run_case(flood_prevention=False)
    table = Table(
        title="A3: flood prevention ablation (6 concurrent requesters, "
              "gossip selection)",
        columns=["variant", "makespan (s)", "max jobs on one host",
                 "distinct hosts used"],
        notes="without the acceptance bias/cap, stale gossip dogpiles "
              "one idle host ([BSW89])",
    )
    table.add_row("flood prevention ON", with_fp["makespan"],
                  with_fp["max_on_one_host"], with_fp["distinct_hosts"])
    table.add_row("flood prevention OFF", without_fp["makespan"],
                  without_fp["max_on_one_host"], without_fp["distinct_hosts"])
    return table, with_fp, without_fp


def test_a3_flood_prevention(benchmark, archive):
    table, with_fp, without_fp = run_simulated(benchmark, build_artifacts)
    archive("A3_flood_prevention", table.render())
    # The ablated run concentrates load; the protected run spreads it.
    assert without_fp["max_on_one_host"] > with_fp["max_on_one_host"]
    assert without_fp["makespan"] > with_fp["makespan"]
    assert with_fp["distinct_hosts"] >= without_fp["distinct_hosts"]
