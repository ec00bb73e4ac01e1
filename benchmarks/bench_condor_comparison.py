"""B1 — Sprite eviction-migration vs Condor checkpoint/restart (ch. 2).

Both systems vacate a workstation when its owner returns; they differ
in what that costs the displaced job.  Condor kills and restarts from
the last periodic checkpoint: work since the checkpoint is lost and
every checkpoint writes the whole image.  Sprite freezes, flushes dirty
pages, and continues — nothing is lost and nothing is written except
what was dirty.

Scenario: one long job runs on the only idle host; mid-run the owner
returns briefly, then leaves.  The job must end up complete either way;
the comparison is the overhead.
"""

from __future__ import annotations

from repro import MB, SpriteCluster
from repro.baselines import CondorJob, CondorScheduler
from repro.loadsharing import LoadSharingService, ReExporter
from repro.obs import Table
from repro.sim import Sleep, spawn

from common import run_simulated

JOB_CPU = 120.0
IMAGE = 2 * MB
OWNER_RETURNS_AT = 60.0


def run_condor():
    cluster = SpriteCluster(workstations=3, start_daemons=True, seed=1)
    cluster.run(until=45.0)
    scheduler = CondorScheduler(cluster, checkpoint_period=30.0)
    scheduler.submit(CondorJob(job_id=0, cpu_seconds=JOB_CPU, image_bytes=IMAGE))
    scheduler.start()

    def owner():
        yield Sleep(OWNER_RETURNS_AT)
        for host in cluster.hosts:
            host.user_input()
        yield Sleep(1.0)
        for host in cluster.hosts:
            host.user_leaves()

    spawn(cluster.sim, owner(), name="owner", daemon=True)

    def waiter():
        while not scheduler.all_done:
            yield Sleep(5.0)

    task = spawn(cluster.sim, waiter(), name="waiter")
    cluster.run_until_complete(task)
    job = scheduler.results[0].job
    return {
        "turnaround": scheduler.results[0].turnaround,
        "lost_cpu": job.lost_cpu,
        "ckpt_bytes": job.checkpoints * IMAGE,
        "restarts": job.restarts,
    }


def run_sprite():
    cluster = SpriteCluster(workstations=3, start_daemons=True, seed=1)
    service = LoadSharingService(cluster, architecture="centralized")
    ReExporter(cluster, service)
    cluster.standard_images()
    cluster.run(until=45.0)
    submitter = cluster.hosts[0]
    client = service.mig_client(submitter)

    def unit(proc, cpu):
        yield from proc.use_memory(IMAGE)
        yield from proc.compute(cpu, dirty_bytes_per_second=8192)
        return 0

    def coordinator(proc):
        finished = yield from client.run_batch(
            proc, [(unit, (JOB_CPU,), "job")], image_path="/bin/sim",
            keep_one_local=False,
        )
        return finished

    pcb, _ = submitter.spawn_process(coordinator, name="submit")
    submitted_at = cluster.sim.now

    def owner():
        yield Sleep(OWNER_RETURNS_AT)
        for host in cluster.hosts[1:]:
            host.user_input()
        yield Sleep(1.0)
        for host in cluster.hosts[1:]:
            host.user_leaves()

    spawn(cluster.sim, owner(), name="owner", daemon=True)
    finished = cluster.run_until_complete(pcb.task)
    records = [r for r in cluster.migration_records() if not r.refused]
    evictions = [r for r in records if r.reason == "eviction"]
    flushed = sum(
        (r.vm.bytes_during_freeze if r.vm else 0) for r in evictions
    )
    return {
        "turnaround": cluster.sim.now - submitted_at,
        "lost_cpu": 0.0,                      # migration loses nothing
        "ckpt_bytes": flushed,                # only dirty pages moved
        "restarts": len(evictions),
    }


def build_artifacts():
    condor = run_condor()
    sprite = run_sprite()
    table = Table(
        title="B1: displaced-job overhead, Sprite migration vs Condor "
              "checkpoint/restart (120s job, owner returns at +60s)",
        columns=["system", "turnaround (s)", "CPU lost (s)",
                 "image bytes written (MB)", "restarts/evictions"],
    )
    table.add_row("sprite", sprite["turnaround"], sprite["lost_cpu"],
                  sprite["ckpt_bytes"] / MB, sprite["restarts"])
    table.add_row("condor", condor["turnaround"], condor["lost_cpu"],
                  condor["ckpt_bytes"] / MB, condor["restarts"])
    return table, sprite, condor


def test_b1_condor_comparison(benchmark, archive):
    table, sprite, condor = run_simulated(benchmark, build_artifacts)
    archive("B1_condor_comparison", table.render())
    # Sprite loses no work; Condor loses whatever ran since a checkpoint.
    assert sprite["lost_cpu"] == 0.0
    assert condor["lost_cpu"] > 0.0
    # Condor writes whole images repeatedly; Sprite only dirty pages.
    assert condor["ckpt_bytes"] > sprite["ckpt_bytes"]
    # Both finish; Sprite's displaced job completes sooner.
    assert sprite["turnaround"] < condor["turnaround"]
