"""End-to-end usage simulation (ch. 8, experiment E10).

Drives a live cluster through a multi-day window: every host has an
owner following a diurnal activity trace; owners submit short
interactive jobs (Zhou lifetimes) while at the console and occasionally
long parallelizable batches that fan out through the load-sharing
facility.  The report mirrors the thesis's month-of-production table:
counts of remote execs and evictions, processor utilization (theirs:
2.3 %), and the idle-host fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..cluster import SpriteCluster
from ..kernel import Host, UserContext
from ..loadsharing import LoadSharingService
from ..migration import records_by_reason
from ..migration.stats import mean
from ..sim import Effect, Sleep, spawn
from ..sim.random import Rng
from .activity import ActivityDriver, ActivityModel
from .lifetimes import ZhouLifetimes

__all__ = ["UsageReport", "UsageSimulation"]


@dataclass
class UsageReport:
    duration: float
    hosts: int
    interactive_jobs: int = 0
    batches: int = 0
    batch_jobs: int = 0
    remote_execs: int = 0
    evictions: int = 0
    eviction_victims: int = 0
    migrations_total: int = 0
    cpu_seconds: float = 0.0
    idle_samples: List[float] = field(default_factory=list)

    @property
    def processor_utilization(self) -> float:
        """Cluster-wide CPU utilization over the window (percent)."""
        return 100.0 * self.cpu_seconds / (self.duration * self.hosts)

    @property
    def mean_idle_fraction(self) -> float:
        return mean(self.idle_samples) if self.idle_samples else 0.0

    def rows(self) -> Dict[str, float]:
        return {
            "duration_days": self.duration / 86400.0,
            "hosts": self.hosts,
            "interactive_jobs": self.interactive_jobs,
            "batches": self.batches,
            "remote_execs": self.remote_execs,
            "evictions": self.evictions,
            "eviction_victims": self.eviction_victims,
            "migrations_total": self.migrations_total,
            "processor_utilization_pct": round(self.processor_utilization, 3),
            "mean_idle_fraction": round(self.mean_idle_fraction, 3),
        }


def _interactive_job(proc: UserContext, cpu: float) -> Generator[Effect, None, int]:
    yield from proc.compute(cpu)
    return 0


def _batch_unit(proc: UserContext, cpu: float) -> Generator[Effect, None, int]:
    yield from proc.use_memory(512 * 1024)
    yield from proc.compute(cpu, dirty_bytes_per_second=1024)
    return 0


#: Seconds between samples of the idle-host fraction.
SAMPLE_PERIOD = 600.0


class UsageSimulation:
    """Owner behaviour + load sharing on a live cluster."""

    def __init__(
        self,
        cluster: SpriteCluster,
        service: LoadSharingService,
        duration: float = 8 * 3600.0,
        activity: Optional[ActivityModel] = None,
        think_time: float = 90.0,
        batch_probability: float = 0.02,
        batch_width: int = 4,
        batch_unit_cpu: float = 60.0,
        seed: int = 0,
    ):
        self.cluster = cluster
        self.service = service
        self.duration = duration
        self.activity = activity or ActivityModel(seed=seed)
        self.think_time = think_time
        self.batch_probability = batch_probability
        self.batch_width = batch_width
        self.batch_unit_cpu = batch_unit_cpu
        self.lifetimes = ZhouLifetimes(seed=seed ^ 0x5EED)
        self.report = UsageReport(
            duration=duration, hosts=len(cluster.hosts)
        )
        self._rng = Rng(seed ^ 0xACE)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Attach activity traces and owner job generators to each host."""
        for index, host in enumerate(self.cluster.hosts):
            intervals = self.activity.generate_intervals(index, self.duration)
            ActivityDriver(host, intervals)
            spawn(
                self.cluster.sim,
                self._owner_loop(host, index),
                name=f"owner:{host.name}",
                daemon=True,
            )
        spawn(
            self.cluster.sim, self._sampler(), name="idle-sampler", daemon=True
        )

    def run(self) -> UsageReport:
        self.install()
        self.cluster.run(until=self.duration)
        return self.finalize()

    def finalize(self) -> UsageReport:
        report = self.report
        report.cpu_seconds = self.cluster.total_cpu_seconds()
        records = self.cluster.migration_records()
        completed = [r for r in records if not r.refused]
        report.migrations_total = len(completed)
        by_reason = records_by_reason(completed)
        report.remote_execs = len(by_reason.get("exec", []))
        report.eviction_victims = len(by_reason.get("eviction", []))
        report.evictions = sum(
            len(evictor.events) for evictor in self.cluster.evictors
        )
        return report

    # ------------------------------------------------------------------
    def _owner_loop(self, host: Host, index: int) -> Generator[Effect, None, None]:
        rng = Rng((self._rng.integers(2**31) + index) % 2**31)
        client = self.service.mig_client(host)
        while True:
            yield Sleep(rng.exponential(self.think_time))
            if not host.user_present:
                continue
            if rng.random() < self.batch_probability:
                self.report.batches += 1
                width = rng.integers(2, self.batch_width + 1)
                self.report.batch_jobs += width
                pcb, _ = host.spawn_process(
                    self._batch_coordinator_program(client, width, rng),
                    name=f"batch:{host.name}",
                )
            else:
                self.report.interactive_jobs += 1
                cpu = min(self.lifetimes.sample(), 120.0)
                host.spawn_process(_interactive_job, cpu, name="interactive")

    def _batch_coordinator_program(self, client, width: int, rng):
        unit_cpus = [
            rng.exponential(self.batch_unit_cpu) for _ in range(width)
        ]

        def coordinator(proc):
            jobs = [
                (_batch_unit, (cpu,), f"unit{i}")
                for i, cpu in enumerate(unit_cpus)
            ]
            yield from client.run_batch(proc, jobs, image_path="/bin/sim")
            return 0

        return coordinator

    def _sampler(self) -> Generator[Effect, None, None]:
        while True:
            yield Sleep(SAMPLE_PERIOD)
            idle = len(self.cluster.idle_hosts())
            self.report.idle_samples.append(idle / len(self.cluster.hosts))
