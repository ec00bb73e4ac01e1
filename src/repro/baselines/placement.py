"""Placement-only vs. migration-with-eviction (experiment E11).

The debate the thesis engages ([ELZ88] vs [KL88]): is migrating
*active* processes worth it beyond good initial placement?  Sprite's
answer centres on workstation autonomy: without eviction, a returning
owner shares their machine with guests for the rest of the guests'
lifetimes.

The scenario: an idle cluster accepts a batch of long jobs from one
submitting host; partway through, the owners of the granted hosts come
back and stay.  Under ``placement`` the guests squat; under ``sprite``
they are evicted home and finish there.  The outcome captures both
sides of the trade: job turnaround AND owner interference (guest-busy
seconds while the owner was present).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List

from ..cluster import SpriteCluster
from ..kernel import UserContext
from ..loadsharing import LoadSharingService
from ..sim import Effect, Sleep, spawn

__all__ = ["PlacementOutcome", "run_placement_scenario", "POLICIES"]

POLICIES = ("placement", "sprite")

_WARMUP = 45.0


@dataclass
class PlacementOutcome:
    policy: str
    turnarounds: List[float] = field(default_factory=list)
    #: Guest-busy seconds accumulated while the host's owner was present.
    owner_interference: float = 0.0
    evictions: int = 0
    migrations: int = 0

    @property
    def mean_turnaround(self) -> float:
        return sum(self.turnarounds) / len(self.turnarounds) if self.turnarounds else 0.0

    @property
    def max_turnaround(self) -> float:
        return max(self.turnarounds) if self.turnarounds else 0.0


def _job(proc: UserContext, cpu: float) -> Generator[Effect, None, int]:
    yield from proc.use_memory(512 * 1024)
    yield from proc.compute(cpu, dirty_bytes_per_second=1024)
    return 0


def run_placement_scenario(
    policy: str,
    hosts: int = 6,
    jobs: int = 5,
    job_cpu: float = 120.0,
    owners_return_after: float = 45.0,
) -> PlacementOutcome:
    """Run the scenario under one policy and report the outcome.

    ``owners_return_after`` is measured from batch launch (which starts
    after a fixed warm-up during which hosts become available).
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}")
    cluster = SpriteCluster(workstations=hosts, start_daemons=True)
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.standard_images()
    if policy == "placement":
        # No eviction: the daemons never wake up to reclaim hosts.
        for evictor in cluster.evictors:
            evictor.poll_period = 1e12
    outcome = PlacementOutcome(policy=policy)
    cluster.run(until=_WARMUP)

    submitter = cluster.hosts[0]
    client = service.mig_client(submitter)

    def coordinator(proc):
        job_list = [(_job, (job_cpu,), f"job{i}") for i in range(jobs)]
        finished = yield from client.run_batch(
            proc, job_list, image_path="/bin/sim", keep_one_local=False
        )
        return finished

    pcb, _ = submitter.spawn_process(coordinator, name="submitter")
    owners_return_at = _WARMUP + owners_return_after

    def owners_return():
        yield Sleep(owners_return_at - cluster.sim.now)
        while True:
            for host in cluster.hosts[1:]:
                host.user_input()
            yield Sleep(5.0)

    spawn(cluster.sim, owners_return(), name="owners", daemon=True)

    def interference_sampler():
        period = 1.0
        while True:
            yield Sleep(period)
            if cluster.sim.now < owners_return_at:
                continue
            for host in cluster.hosts[1:]:
                guests = host.kernel.foreign_pcbs()
                if guests:
                    outcome.owner_interference += period * min(1.0, len(guests))

    spawn(cluster.sim, interference_sampler(), name="sampler", daemon=True)

    finished = cluster.run_until_complete(pcb.task)
    outcome.turnarounds = [
        job.turnaround for job in finished if job.turnaround is not None
    ]
    records = [r for r in cluster.migration_records() if not r.refused]
    outcome.migrations = len(records)
    outcome.evictions = len([r for r in records if r.reason == "eviction"])
    return outcome
