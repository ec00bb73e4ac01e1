"""Condor-style checkpoint/restart [LLM88, SI89] — the other migration.

Condor "migrates" by checkpointing a job's entire memory image to a
file and restarting it elsewhere; work since the last checkpoint is
lost, checkpoints cost a full image write, and jobs are restricted
(single process, batch, no interactive I/O).  Compared with Sprite's
eviction this trades transparency and efficiency for kernel simplicity.

The scheduler here reproduces Condor's behaviour faithfully enough for
the comparison benchmarks: periodic checkpoints to the shared FS,
eviction-by-kill when a host's owner returns, restart from the last
checkpoint on the next idle host.  Image storage and pricing go through
:mod:`repro.checkpoint` — the same digest-sealed
:class:`~repro.checkpoint.CheckpointImage`/:class:`~repro.checkpoint.\
CheckpointStore` primitives the kernel-level checkpoint daemon uses, so
the baseline and the subsystem can never drift apart on image costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from ..checkpoint import CheckpointStore, read_image, write_image
from ..config import MB
from ..cluster import SpriteCluster
from ..kernel import Host
from ..sim import Effect, Sleep, Task, spawn

__all__ = ["CondorJob", "CondorScheduler", "CondorJobResult"]


@dataclass
class CondorJob:
    """A batch job: pure CPU demand plus a memory image to checkpoint."""

    job_id: int
    cpu_seconds: float
    image_bytes: int = 1 * MB

    # Progress bookkeeping (owned by the scheduler).
    completed_cpu: float = 0.0
    checkpointed_cpu: float = 0.0
    restarts: int = 0
    checkpoints: int = 0
    lost_cpu: float = 0.0
    submitted_at: float = 0.0
    finished_at: Optional[float] = None


@dataclass
class CondorJobResult:
    job: CondorJob

    @property
    def turnaround(self) -> float:
        assert self.job.finished_at is not None
        return self.job.finished_at - self.job.submitted_at

    @property
    def overhead_ratio(self) -> float:
        """Turnaround relative to the job's pure CPU demand."""
        return self.turnaround / self.job.cpu_seconds


class CondorScheduler:
    """Central matchmaker: queue jobs, run them on idle hosts.

    ``checkpoint_period`` controls the classic trade-off: frequent
    checkpoints cost image writes; rare ones lose more work at each
    eviction.
    """

    def __init__(
        self,
        cluster: SpriteCluster,
        checkpoint_period: float = 300.0,
        poll_period: float = 5.0,
    ):
        self.cluster = cluster
        self.checkpoint_period = checkpoint_period
        self.poll_period = poll_period
        self.queue: List[CondorJob] = []
        self.results: List[CondorJobResult] = []
        self.evictions = 0
        #: Checkpoint images, keyed by job id (shared primitives with
        #: the kernel-level checkpoint daemon; bounded generations).
        self.store = CheckpointStore(cluster.params, root="/condor")
        self._done_count = 0
        self._submitted = 0

    # ------------------------------------------------------------------
    def submit(self, job: CondorJob) -> None:
        job.submitted_at = self.cluster.sim.now
        self.queue.append(job)
        self._submitted += 1

    def start(self) -> Task:
        """Launch the matchmaking loop; returns its task."""
        return spawn(
            self.cluster.sim, self._matchmaker(), name="condor-matchmaker",
            daemon=True,
        )

    @property
    def all_done(self) -> bool:
        return self._done_count == self._submitted

    # ------------------------------------------------------------------
    def _matchmaker(self) -> Generator[Effect, None, None]:
        busy_hosts: set = set()
        while True:
            while self.queue:
                host = self._find_idle_host(busy_hosts)
                if host is None:
                    break
                job = self.queue.pop(0)
                busy_hosts.add(host.address)
                spawn(
                    self.cluster.sim,
                    self._run_job(job, host, busy_hosts),
                    name=f"condor-job{job.job_id}@{host.name}",
                    daemon=True,
                )
            yield Sleep(self.poll_period)

    def _find_idle_host(self, busy_hosts: set) -> Optional[Host]:
        for host in self.cluster.hosts:
            if host.address in busy_hosts:
                continue
            if host.is_available():
                return host
        return None

    # ------------------------------------------------------------------
    def _run_job(
        self, job: CondorJob, host: Host, busy_hosts: set
    ) -> Generator[Effect, None, None]:
        """Execute (a segment of) a job on one host until done/evicted."""
        sim = self.cluster.sim
        try:
            # Restart: fetch the newest intact checkpoint image from
            # the shared FS (none yet = restart from scratch).
            if job.restarts or job.checkpoints:
                image = self.store.latest_intact(job.job_id)
                if image is not None:
                    yield from read_image(host.fs, image)
                    job.completed_cpu = image.progress
                else:
                    job.completed_cpu = 0.0
            next_checkpoint = sim.now + self.checkpoint_period
            while job.completed_cpu < job.cpu_seconds:
                if host.user_present or (
                    host.input_idle_seconds() < host.params.idle_input_threshold
                    and host.last_input > 0
                ):
                    # Owner returned: kill and requeue (Condor eviction).
                    self.evictions += 1
                    job.lost_cpu += job.completed_cpu - job.checkpointed_cpu
                    job.restarts += 1
                    self.queue.append(job)
                    return
                slice_end_cpu = min(
                    job.cpu_seconds,
                    job.completed_cpu + 1.0,
                )
                demand = slice_end_cpu - job.completed_cpu
                yield from host.cpu.consume(demand)
                job.completed_cpu = slice_end_cpu
                if sim.now >= next_checkpoint and job.completed_cpu < job.cpu_seconds:
                    image = self.store.begin(
                        job.job_id, f"condor-{job.job_id}", "full"
                    )
                    image.taken_at = sim.now
                    image.progress = job.completed_cpu
                    image.vm_size = job.image_bytes
                    image.restore_bytes = (
                        job.image_bytes
                        + host.params.checkpoint_digest_bytes
                    )
                    yield from write_image(
                        host.fs, self.store, image, job.image_bytes
                    )
                    job.checkpointed_cpu = job.completed_cpu
                    job.checkpoints += 1
                    next_checkpoint = sim.now + self.checkpoint_period
            job.finished_at = sim.now
            self.results.append(CondorJobResult(job=job))
            self._done_count += 1
        finally:
            busy_hosts.discard(host.address)
