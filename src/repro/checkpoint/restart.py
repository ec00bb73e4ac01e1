"""Crash-triggered restart from the latest intact checkpoint image.

The fault injector's crash-detection daemon calls
:meth:`RestartManager.host_lost` (via ``injector.restart``) right after
peer kernels have reaped the crashed host's orphans and shadows.  The
manager scans the checkpoint registry for *victims* — registered
processes whose task was aborted rather than exiting with a code — and
spawns one restore task per crash to bring each victim back on a
surviving host from its newest intact image.

Restores pay for what they read: the restart host re-instantiates the
process state (``migration_state_cpu``), pages the image's restore
bytes back in from the FS backing file, and reopens the image's stream
references before the restored process runs again.  Restoration reuses
the *same* :class:`~repro.kernel.pcb.Pcb` object (identity matters:
parents hold its shared ``exit_event``), banks the image's CPU progress
in ``pcb.cpu_time``/``pcb.restored_progress``, and starts a fresh task
from the image's spawn factory.  Torn images — digest mismatch from a
write the crash interrupted — are counted and skipped; with no intact
image at all the process stays lost (exactly a process that was never
checkpointed).

A double crash (restart host dies too) needs no special machinery: the
next ``host_lost`` sweep sees the restored task aborted again and
restores again from the same image chain.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..kernel import Pcb, UserContext, Vm
from ..migration.packaging import PACKAGE_EXCEPTIONS
from ..obs import CKPT_RESTORE, SpanTracer
from ..sim import Effect, spawn
from .image import read_image

__all__ = ["RestartManager"]


class RestartManager:
    """Restores checkpointed victims of host crashes."""

    def __init__(self, service: Any):
        self.service = service
        self.cluster = service.cluster
        self.sim = service.cluster.sim
        self.tracer = service.cluster.tracer
        self.spans = SpanTracer.for_tracer(self.tracer)
        #: Statistics for reports and tests.
        self.restores = 0
        self.torn_skipped = 0
        self.unrecoverable = 0
        self.failed_restores = 0

    # ------------------------------------------------------------------
    # Crash-detection hook (synchronous; called by the fault injector)
    # ------------------------------------------------------------------
    def host_lost(self, address: int) -> int:
        """React to a detected crash: restore every victim.

        Returns the victim count; spawns nothing when there are no
        victims, so a crash that hurt no checkpointed process costs the
        fingerprint nothing.
        """
        victims = [
            pid
            for pid in sorted(self.service.registry)
            if not self.service.registry[pid].abandoned
            and self._is_victim(self.service.registry[pid].pcb)
        ]
        if victims:
            spawn(
                self.sim,
                self._restore_all(victims),
                name=f"ckpt-restart:{address}",
                daemon=True,
            )
        return len(victims)

    @staticmethod
    def _is_victim(pcb: Pcb) -> bool:
        """Died by crash: the task ended without producing an exit code
        (host-crash aborts carry a reason tuple, normal exits an int).
        Self-correcting across double crashes — a restore gives the pcb
        a fresh, not-done task, so it stops matching until it dies again.
        """
        task = pcb.task
        if task is None or not task.done:
            return False
        return not isinstance(task.result, int)

    # ------------------------------------------------------------------
    def _restore_all(self, victims: List[int]) -> Generator[Effect, None, None]:
        for pid in victims:
            yield from self.restore(pid)

    def restore(self, pid: int) -> Generator[Effect, None, Optional[Pcb]]:
        """Restore one victim from its newest intact image."""
        registration = self.service.registry[pid]
        pcb = registration.pcb
        if pcb.task is not None and not pcb.task.done:
            return None  # already restored (racing crash detections)

        image = self.service.store.latest_intact(pid)
        if image is None:
            # Never successfully imaged (or every image tore): the
            # process is as lost as an unprotected one.
            registration.abandoned = True
            self.unrecoverable += 1
            self._emit("restore_lost", pid=pid)
            return None
        self.torn_skipped += self.service.store.torn_after(image)

        host = self._pick_host(pcb)
        if host is None:
            self.failed_restores += 1
            self._emit("restore_failed", pid=pid, reason="no-host")
            return None

        started = self.sim.now
        streams = {}
        try:
            yield from host.cpu.consume(self.service.params.migration_state_cpu)
            yield from read_image(host.fs, image)
            for fd, path, mode in image.stream_refs:
                streams[fd] = yield from host.fs.open(path, mode)
        except PACKAGE_EXCEPTIONS:
            # Restart host failed mid-restore; release whatever streams
            # made it and leave the victim for the next crash sweep.
            self.failed_restores += 1
            for fd in sorted(streams):
                host.fs.forget_stream(streams[fd])
            self._emit("restore_failed", pid=pid, reason="io")
            return None
        if not host.node.up or (pcb.task is not None and not pcb.task.done):
            self.failed_restores += 1
            for fd in sorted(streams):
                host.fs.forget_stream(streams[fd])
            self._emit("restore_failed", pid=pid, reason="raced")
            return None

        # Activation is yield-free: between here and task start no other
        # task can observe a half-restored pcb.
        pcb.vm = Vm(size=image.vm_size, resident=image.vm_size)
        pcb.streams = streams
        pcb.next_fd = max(streams, default=2) + 1
        pcb.pending_signals.clear()
        pcb.interruptible = False
        pcb.migration_ticket = None
        pcb.checkpoint_lock = False
        pcb.cpu_time = image.progress
        pcb.restored_progress = image.progress
        host.kernel.install_pcb(pcb)
        UserContext(pcb, self.cluster.kernels).start(image.factory)
        # The old base's backing file died with its host: the first
        # post-restore checkpoint must be a fresh full image.
        registration.base = None
        registration.dirty_mark = 0

        self.restores += 1
        now = self.sim.now
        if self.spans.enabled:
            self.spans.record(
                CKPT_RESTORE, f"ckpt-restart:{host.name}", started, now,
                pid=pid, seq=image.seq, host=host.address,
                bytes=image.restore_bytes,
            )
        self._emit(
            "restore", pid=pid, seq=image.seq, host=host.address,
            progress=round(image.progress, 9),
        )
        return pcb

    # ------------------------------------------------------------------
    def _pick_host(self, pcb: Pcb) -> Optional[Any]:
        """Home host if it survived, else the lowest-address live host."""
        for host in self.cluster.hosts:
            if host.address == pcb.home and host.node.up:
                return host
        for host in sorted(self.cluster.hosts, key=lambda h: h.address):
            if host.node.up:
                return host
        return None

    def _emit(self, kind: str, **detail: Any) -> None:
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "ckpt-restart", kind, **detail)
