"""The ``mig`` client: running programs on idle hosts (ch. 3, 7).

:class:`MigClient` is the library equivalent of Sprite's ``mig``
command and of the agent inside ``pmake``: it asks the host-selection
facility for idle machines, launches children with exec-time migration
onto them, falls back to local execution when the cluster is busy or a
target refuses, and releases hosts when the work completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence

from ..kernel import ExitStatus, Program, UserContext
from ..migration import MigrationRefused
from ..sim import Effect
from .base import HostSelector

__all__ = ["MigClient", "RemoteJob"]


@dataclass
class RemoteJob:
    """One child launched through the mig client."""

    pid: int
    target: Optional[int]          # None = ran locally
    name: str
    launched_at: float
    finished_at: Optional[float] = None
    status: Optional[ExitStatus] = None
    fell_back_local: bool = False

    @property
    def turnaround(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.launched_at


def _remote_child(
    proc: UserContext,
    program: Program,
    args: Sequence[Any],
    target: Optional[int],
    name: str,
    image_path: Optional[str],
    fallback_flag: List[bool],
) -> Generator[Effect, None, Any]:
    """Child body: exec (remotely when a target was granted)."""
    if target is not None:
        try:
            yield from proc.exec(
                program,
                *args,
                name=name,
                image_path=image_path,
                host=target,
            )
        except MigrationRefused:
            # Target got busy between selection and migration (stale
            # information): run at home instead, as mig does.
            fallback_flag.append(True)
    yield from proc.exec(program, *args, name=name, image_path=image_path)


class MigClient:
    """Launches work onto idle hosts via a selector."""

    def __init__(self, selector: HostSelector):
        self.selector = selector
        self.host = selector.host
        self.jobs: List[RemoteJob] = []
        #: pid -> granted host, so completions can recycle hosts.
        self._host_of_pid: Dict[int, Optional[int]] = {}

    # ------------------------------------------------------------------
    def acquire_hosts(self, n: int) -> Generator[Effect, None, List[int]]:
        """Request up to ``n`` idle hosts from the selection facility."""
        return (yield from self.selector.request(n))

    def release_hosts(self, hosts: Sequence[int]) -> Generator[Effect, None, None]:
        yield from self.selector.release(hosts)

    # ------------------------------------------------------------------
    def launch(
        self,
        proc: UserContext,
        program: Program,
        *args: Any,
        target: Optional[int] = None,
        name: Optional[str] = None,
        image_path: Optional[str] = None,
    ) -> Generator[Effect, None, RemoteJob]:
        """Fork+exec ``program`` on ``target`` (or locally when None).

        Must be called from the parent process's own context (``proc``).
        Returns the :class:`RemoteJob`; reap it with ``proc.wait()``.
        """
        job_name = name or getattr(program, "__name__", "job")
        fallback_flag: List[bool] = []
        pid = yield from proc.fork(
            _remote_child,
            program,
            args,
            target,
            job_name,
            image_path,
            fallback_flag,
            name=job_name,
        )
        job = RemoteJob(
            pid=pid,
            target=target,
            name=job_name,
            launched_at=self.host.sim.now,
        )
        job._fallback_flag = fallback_flag  # type: ignore[attr-defined]
        self.jobs.append(job)
        self._host_of_pid[pid] = target
        return job

    def reap(
        self, proc: UserContext
    ) -> Generator[Effect, None, ExitStatus]:
        """Wait for any child; returns its status and frees its host slot."""
        status = yield from proc.wait()
        target = self._host_of_pid.pop(status.pid, None)
        for job in self.jobs:
            if job.pid == status.pid:
                job.status = status
                job.finished_at = self.host.sim.now
                job.fell_back_local = bool(
                    getattr(job, "_fallback_flag", [])
                )
                break
        status.freed_host = target  # type: ignore[attr-defined]
        return status

    # ------------------------------------------------------------------
    def run_batch(
        self,
        proc: UserContext,
        programs: Sequence,
        image_path: Optional[str] = None,
        keep_one_local: bool = True,
    ) -> Generator[Effect, None, List[RemoteJob]]:
        """Run a list of ``(program, args, name)`` tuples, fanning out
        onto as many idle hosts as the facility grants.

        The pattern pmake uses: grab hosts, keep every granted host and
        (optionally) the local CPU busy, recycle hosts as jobs finish,
        release everything at the end.
        """
        pending = list(programs)
        granted = yield from self.acquire_hosts(len(pending))
        free_hosts: List[Optional[int]] = list(granted)
        if keep_one_local:
            free_hosts.append(None)   # the local slot
        running = 0
        finished: List[RemoteJob] = []
        launched_jobs: List[RemoteJob] = []
        while pending or running:
            while pending and free_hosts:
                slot = free_hosts.pop(0)
                program, args, name = pending.pop(0)
                job = yield from self.launch(
                    proc, program, *args,
                    target=slot, name=name, image_path=image_path,
                )
                launched_jobs.append(job)
                running += 1
            if running:
                status = yield from self.reap(proc)
                running -= 1
                freed = getattr(status, "freed_host", None)
                free_hosts.append(freed)
                for job in launched_jobs:
                    if job.pid == status.pid:
                        finished.append(job)
                        break
        yield from self.release_hosts([h for h in granted])
        return finished
