"""Independent simulation farms (ch. 7, experiment E6).

The thesis's second headline application: many independent simulator
runs with different parameters, farmed onto idle hosts.  Unlike pmake
there is no dependency structure and little file traffic, so the
*effective processor utilization* — total CPU consumed divided by
elapsed time — climbs past 800 % with enough hosts, against ~300 % for
the 12-way parallel compile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..config import KB
from ..fs import OpenMode
from ..kernel import UserContext
from ..loadsharing import MigClient
from ..sim import Effect

__all__ = ["SimJobSpec", "SimFarm", "SimFarmResult", "simulation_job"]


@dataclass
class SimJobSpec:
    """One simulator run: CPU demand plus a small result file."""

    index: int
    cpu_seconds: float = 100.0
    result_bytes: int = 4 * KB
    result_dir: str = "/results"


def simulation_job(
    proc: UserContext, spec: SimJobSpec
) -> Generator[Effect, None, int]:
    """Burn simulator CPU, then report the result to the shared FS."""
    yield from proc.use_memory(1024 * KB)
    yield from proc.compute(spec.cpu_seconds, dirty_bytes_per_second=2 * KB)
    fd = yield from proc.open(
        f"{spec.result_dir}/r{spec.index}.out", OpenMode.WRITE | OpenMode.CREATE
    )
    yield from proc.write(fd, spec.result_bytes)
    yield from proc.close(fd)
    return 0


@dataclass
class SimFarmResult:
    elapsed: float
    jobs: int
    total_cpu: float
    remote_jobs: int
    hosts_used: int

    @property
    def effective_utilization(self) -> float:
        """Total CPU-seconds per elapsed second, as a percentage."""
        return 100.0 * self.total_cpu / self.elapsed if self.elapsed else 0.0


class SimFarm:
    """Coordinator farming N independent simulations onto idle hosts."""

    def __init__(
        self,
        client: Optional[MigClient],
        jobs: int = 20,
        cpu_seconds: float = 100.0,
    ):
        self.client = client
        self.specs = [SimJobSpec(index=i, cpu_seconds=cpu_seconds) for i in range(jobs)]

    def run(self, proc: UserContext) -> Generator[Effect, None, SimFarmResult]:
        started = proc.now
        total_cpu = sum(spec.cpu_seconds for spec in self.specs)
        if self.client is None:
            for spec in self.specs:
                pid = yield from proc.fork(simulation_job, spec, name=f"sim{spec.index}")
            yield from proc.wait_all()
            return SimFarmResult(
                elapsed=proc.now - started,
                jobs=len(self.specs),
                total_cpu=total_cpu,
                remote_jobs=0,
                hosts_used=1,
            )
        jobs = [
            (simulation_job, (spec,), f"sim{spec.index}") for spec in self.specs
        ]
        finished = yield from self.client.run_batch(
            proc, jobs, image_path="/bin/sim"
        )
        remote = [job for job in finished if job.target is not None and not job.fell_back_local]
        return SimFarmResult(
            elapsed=proc.now - started,
            jobs=len(finished),
            total_cpu=total_cpu,
            remote_jobs=len(remote),
            hosts_used=len({job.target for job in remote}) + 1,
        )
