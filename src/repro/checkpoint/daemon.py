"""The per-host checkpoint daemon.

One :class:`CheckpointDaemon` per host, owned by the cluster's
:class:`~repro.checkpoint.service.CheckpointService`.  The daemon task
is spawned lazily on the first process registration, so a cluster that
never checkpoints schedules zero extra events (the zero-cost-when-off
discipline every repro subsystem follows).

Each sweep the daemon checkpoints every registered process currently
*resident* on its host: it banks the process's CPU progress and open
streams into a :class:`~repro.checkpoint.image.CheckpointImage`, charges
the same state-packaging CPU migration pays, and pages the image bytes
out to an FS backing file.  ``mode="incremental"`` writes only the
pages dirtied since the last *full* image (differential deltas), so a
restore reads exactly the base plus the newest intact delta.

Mutual exclusion with migration is two-sided: the daemon skips a
process holding a migration ticket, and ``MigrationMechanism.
_check_eligible`` refuses a process whose ``checkpoint_lock`` is set.

A host crash mid-write surfaces as an ``RpcError`` from the backing
file; the daemon drops the attempt, leaving a *torn* (unsealed) image
the restart path detects by digest and skips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..kernel import Pcb, ProcState
from ..migration.packaging import PACKAGE_EXCEPTIONS
from ..obs import CKPT_CHECKPOINT, CKPT_WRITE, SpanTracer
from ..sim import Effect, Sleep, spawn
from .image import CheckpointImage, image_payload, write_image

__all__ = ["CheckpointDaemon", "Registration"]


@dataclass
class Registration:
    """One process under checkpoint protection."""

    pcb: Pcb
    #: Zero-arg spawn factory (``packaging.spawn_factory``) that re-runs
    #: the program under a fresh task on restore.
    factory: Any
    #: Last full image this process's incremental chain hangs off.
    base: Optional[CheckpointImage] = None
    #: ``vm.dirty`` high-water mark at the last *full* image; deltas
    #: carry everything dirtied past it.
    dirty_mark: int = 0
    #: Set by the restart manager once the process died with no intact
    #: image to restore from — it is permanently lost (counted once).
    abandoned: bool = False


class CheckpointDaemon:
    """Periodically images this host's registered residents."""

    def __init__(self, service: Any, host: Any):
        self.service = service
        self.host = host
        self.sim = host.sim
        self.params = host.params
        self.tracer = host.tracer
        self.spans = SpanTracer.for_tracer(host.tracer)
        #: Statistics, aggregated by the service for reports.
        self.checkpoints = 0
        self.incrementals = 0
        self.skipped_migrating = 0
        self.torn_writes = 0
        self.bytes_written = 0
        self._task = None

    # ------------------------------------------------------------------
    def ensure_running(self) -> None:
        """Spawn the sweep loop on first registration (idempotent)."""
        if self._task is None:
            self._task = spawn(
                self.sim, self._loop,
                name=f"ckptd:{self.host.name}", daemon=True,
            )

    def _loop(self) -> Generator[Effect, None, None]:
        while True:
            yield Sleep(self.service.interval)
            if not self.host.node.up:
                # The daemon survives its host's crash (idle, like the
                # load-average sampler); it just skips sweeps until the
                # reboot brings the node back.
                continue
            yield from self.sweep()

    # ------------------------------------------------------------------
    def sweep(self) -> Generator[Effect, None, int]:
        """Checkpoint every registered process resident here now."""
        taken = 0
        for pid in sorted(self.service.registry):
            registration = self.service.registry[pid]
            pcb = registration.pcb
            if pcb.state is not ProcState.RUNNING:
                continue
            if pcb.current != self.host.address:
                continue
            if self.host.kernel.procs.get(pid) is not pcb:
                continue
            if pcb.task is None or pcb.task.done:
                continue
            if pcb.migration_ticket is not None:
                # Migration owns the process state under its txn lease;
                # the next sweep catches the process on its new host.
                self.skipped_migrating += 1
                continue
            yield from self.checkpoint_one(registration)
            taken += 1
        return taken

    def checkpoint_one(
        self, registration: Registration
    ) -> Generator[Effect, None, Optional[CheckpointImage]]:
        """Write one image for one process; ``None`` if the write tore."""
        pcb = registration.pcb
        store = self.service.store
        params = self.params
        started = self.sim.now
        # The process may be mid-compute: image its progress and dirty
        # pages as of the last quantum boundary.
        self.host.cpu.sync()

        incremental = (
            self.service.mode == "incremental"
            and registration.base is not None
            and registration.base.intact
        )
        payload, stream_refs = image_payload(params, pcb)
        if incremental:
            vm_bytes = max(0, pcb.vm.dirty - registration.dirty_mark)
        else:
            vm_bytes = pcb.vm.size

        image = store.begin(
            pcb.pid, pcb.name, "incremental" if incremental else "full"
        )
        image.taken_at = started
        image.progress = pcb.cpu_time
        image.vm_size = pcb.vm.size
        image.factory = registration.factory
        image.stream_refs = stream_refs
        if incremental:
            image.base_seq = registration.base.seq
            image.restore_bytes = (
                registration.base.restore_bytes
                + payload + vm_bytes + params.checkpoint_digest_bytes
            )
        else:
            image.restore_bytes = (
                payload + vm_bytes + params.checkpoint_digest_bytes
            )

        pcb.checkpoint_lock = True
        try:
            yield from self.host.cpu.consume(params.migration_state_cpu)
            yield from write_image(
                self.host.fs, store, image, payload + vm_bytes
            )
        except PACKAGE_EXCEPTIONS:
            # Crash or FS failure mid-write: the image stays unsealed
            # (torn) and the previous generation remains authoritative.
            self.torn_writes += 1
            return None
        finally:
            pcb.checkpoint_lock = False

        if not incremental:
            # Deltas are differential: each carries *all* pages dirtied
            # since the base full image, so a restore needs only the
            # base plus the newest delta (never a chain of deltas).
            registration.base = image
            self.host.cpu.sync()
            registration.dirty_mark = pcb.vm.dirty
        # Bound storage: drop generations beyond the configured keep
        # count (trimmed only after the new image sealed, so an intact
        # fallback always survives) and reclaim their backing files.
        for dropped in store.trim(pcb.pid):
            try:
                yield from self.host.fs.remove(dropped.path)
            except PACKAGE_EXCEPTIONS:
                pass  # lost-space only; the image metadata is gone
        self.checkpoints += 1
        self.incrementals += int(incremental)
        self.bytes_written += image.image_bytes

        now = self.sim.now
        source = f"ckptd:{self.host.name}"
        if self.spans.enabled:
            root = self.spans.record(
                CKPT_CHECKPOINT, source, started, now,
                pid=pcb.pid, seq=image.seq, mode=image.mode,
            )
            self.spans.record(
                CKPT_WRITE, source, started, now, parent=root,
                bytes=image.image_bytes,
            )
        if self.tracer.enabled:
            self.tracer.emit(
                now, source, "checkpoint",
                pid=pcb.pid, seq=image.seq, mode=image.mode,
                bytes=image.image_bytes, progress=round(image.progress, 9),
            )
        return image
