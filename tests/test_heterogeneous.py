"""Heterogeneous clusters: hardware speed as a selection criterion."""

import pytest

from repro import SpriteCluster
from repro.loadsharing import LoadSharingService
from repro.loadsharing.migd import MigdServer


def test_cpu_speeds_validated():
    with pytest.raises(ValueError):
        SpriteCluster(workstations=3, cpu_speeds=[1.0, 2.0])


def test_fast_host_finishes_sooner():
    cluster = SpriteCluster(
        workstations=2, start_daemons=False, cpu_speeds=[1.0, 2.0]
    )
    finish = {}

    def job(proc, label):
        yield from proc.compute(10.0)
        finish[label] = proc.now
        return 0

    slow_pcb, _ = cluster.hosts[0].spawn_process(job, "slow", name="slow")
    fast_pcb, _ = cluster.hosts[1].spawn_process(job, "fast", name="fast")
    cluster.run_until_complete(slow_pcb.task)
    cluster.run_until_complete(fast_pcb.task)
    assert finish["fast"] == pytest.approx(finish["slow"] / 2, rel=0.05)


def test_migd_prefers_faster_hardware():
    migd = MigdServer(
        SpriteCluster(workstations=1, start_daemons=False).hosts[0]
    )

    def update(host, speed, time=0.0):
        migd._handle(
            {
                "op": "update", "host": host, "load": 0.0,
                "input_idle": 100.0, "available": True, "time": time,
                "speed": speed,
            },
            client_host=host,
        )

    update(10, speed=1.0, time=0.0)    # longest idle, slow
    update(11, speed=3.0, time=20.0)   # newest, fastest
    update(12, speed=2.0, time=10.0)
    granted = migd._handle(
        {"op": "request", "client": 1, "n": 3}, client_host=1
    )["hosts"]
    assert granted == [11, 12, 10]     # by speed, not idleness


def test_migration_to_faster_host_speeds_up_job():
    """End to end: selection steers a batch job to the fast machine and
    it finishes sooner than it would have at home."""
    cluster = SpriteCluster(
        workstations=3, start_daemons=True, cpu_speeds=[1.0, 1.0, 4.0]
    )
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.standard_images()
    cluster.run(until=45.0)
    submitter = cluster.hosts[0]
    client = service.mig_client(submitter)

    def unit(proc):
        yield from proc.compute(20.0)
        return proc.pcb.current

    def coordinator(proc):
        finished = yield from client.run_batch(
            proc, [(unit, (), "unit")], image_path="/bin/sim",
            keep_one_local=False,
        )
        return finished

    start = cluster.sim.now
    pcb, _ = submitter.spawn_process(coordinator, name="batch")
    finished = cluster.run_until_complete(pcb.task)
    elapsed = cluster.sim.now - start
    # migd chose the 4x host; the 20 CPU-second job took ~5s wall time.
    assert finished[0].target == cluster.hosts[2].address
    assert elapsed < 12.0
