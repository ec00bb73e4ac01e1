"""The cluster checkpoint service.

:class:`CheckpointService` is the one-call wiring: it owns the image
store, the registry of protected processes, one checkpoint sweep task
per host, and the :class:`~repro.checkpoint.restart.RestartManager`,
and hooks the latter into the fault injector's crash detection.  It
also publishes itself as ``cluster.checkpoints`` so the invariant
checker can count checkpointed-but-not-restarted images as accounted
state.

The sweep tasks (``ckptd:<host>``) are spawned lazily on the first
process registration, so a cluster that never checkpoints schedules
zero extra events (the zero-cost-when-off discipline every repro
subsystem follows).

Each sweep images every registered process currently *resident* on
its host: it banks the process's CPU progress and open streams into a
:class:`~repro.checkpoint.image.CheckpointImage`, charges the same
state-packaging CPU migration pays, and pages the image bytes out to
an FS backing file.  ``mode="incremental"`` writes only the pages
dirtied since the last *full* image (differential deltas), so a
restore reads exactly the base plus the newest intact delta.

Mutual exclusion with migration is two-sided: a sweep skips a process
holding a migration ticket, and ``MigrationManager._check_eligible``
refuses a process whose ``checkpoint_lock`` is set.

A host crash mid-write surfaces as an ``RpcError`` from the backing
file; the sweep drops the attempt, leaving a *torn* (unsealed) image
the restart path detects by digest and skips.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Generator, Optional, Set, Tuple

from ..kernel import Pcb, ProcState
from ..migration.packaging import (
    PACKAGE_EXCEPTIONS,
    state_bytes,
    stream_bytes,
    stream_manifest,
)
from ..obs import CKPT_CHECKPOINT, CKPT_WRITE
from ..sim import Effect, Sleep, spawn
from .image import CheckpointImage, CheckpointStore, write_image
from .restart import RestartManager

__all__ = ["CheckpointService", "Registration"]


@dataclass
class Registration:
    """One process under checkpoint protection."""

    pcb: Pcb
    #: ``program(proc, *args)`` re-runs the process's work under a
    #: fresh task on restore.
    program: Any
    args: Tuple[Any, ...] = ()
    #: Last full image this process's incremental chain hangs off.
    base: Optional[CheckpointImage] = None
    #: ``vm.dirty`` high-water mark at the last *full* image; deltas
    #: carry everything dirtied past it.
    dirty_mark: int = 0
    #: Set by the restart manager once the process died with no intact
    #: image to restore from — it is permanently lost (counted once).
    abandoned: bool = False


class CheckpointService:
    """Cluster-wide checkpoint/restart, zero-cost until used.

    Instantiating the service schedules nothing; the per-host sweep
    tasks spawn on the first :meth:`register` call.  ``interval`` is the
    checkpoint period in sim seconds — this argument is the one way to
    choose it; ``None`` means the calibrated
    ``ClusterParams.checkpoint_interval``.  ``mode`` is ``"full"`` or
    ``"incremental"`` (dirty-page deltas chained on the last full
    image).
    """

    def __init__(
        self,
        cluster: Any,
        injector: Optional[Any] = None,
        interval: Optional[float] = None,
        mode: str = "full",
    ):
        if mode not in ("full", "incremental"):
            raise ValueError(f"unknown checkpoint mode {mode!r}")
        self.cluster = cluster
        self.params = cluster.params
        self.interval = (
            interval if interval is not None
            else cluster.params.checkpoint_interval
        )
        self.mode = mode
        self.store = CheckpointStore(cluster.params)
        self.registry: Dict[int, Registration] = {}
        self.restart = RestartManager(self)
        #: Sweep statistics; :meth:`stats` adds the restart manager's.
        self.checkpoints = 0
        self.incrementals = 0
        self.skipped_migrating = 0
        self.torn_writes = 0
        self.bytes_written = 0
        cluster.checkpoints = self
        if injector is not None:
            injector.restart = self.restart

    # ------------------------------------------------------------------
    def register(self, pcb: Pcb, program: Any, *args: Any) -> Registration:
        """Put ``pcb`` under checkpoint protection.

        ``program(proc, *args)`` must recreate the process's work when
        re-spawned.  Restart-aware programs consult
        ``pcb.cpu_time``/``pcb.restored_progress`` to skip work their
        image already banked.
        """
        if not self.registry:
            # The first registration starts the sweeps (the registry
            # never shrinks, so this runs once).
            for host in sorted(self.cluster.hosts, key=lambda h: h.address):
                spawn(
                    self.cluster.sim, partial(self._loop, host),
                    name=f"ckptd:{host.name}", daemon=True,
                )
        registration = Registration(pcb=pcb, program=program, args=args)
        self.registry[pcb.pid] = registration
        return registration

    def _loop(self, host: Any) -> Generator[Effect, None, None]:
        while True:
            yield Sleep(self.interval)
            if not host.node.up:
                # The sweep task survives its host's crash (idle, like
                # the load-average sampler); it just skips sweeps until
                # the reboot brings the node back.
                continue
            yield from self.sweep(host)

    # ------------------------------------------------------------------
    def sweep(self, host: Any) -> Generator[Effect, None, int]:
        """Checkpoint every registered process resident on ``host`` now."""
        taken = 0
        for pid in sorted(self.registry):
            registration = self.registry[pid]
            pcb = registration.pcb
            if pcb.state is not ProcState.RUNNING:
                continue
            if pcb.current != host.address:
                continue
            if host.kernel.procs.get(pid) is not pcb:
                continue
            if pcb.task is None or pcb.task.done:
                continue
            if pcb.migration_ticket is not None:
                # Migration owns the process state under its txn lease;
                # the next sweep catches the process on its new host.
                self.skipped_migrating += 1
                continue
            yield from self.checkpoint_one(host, registration)
            taken += 1
        return taken

    def checkpoint_one(
        self, host: Any, registration: Registration
    ) -> Generator[Effect, None, Optional[CheckpointImage]]:
        """Write one image for one process; ``None`` if the write tore."""
        pcb = registration.pcb
        store = self.store
        params = self.params
        sim = host.sim
        started = sim.now
        # The process may be mid-compute: image its progress and dirty
        # pages as of the last quantum boundary.
        host.cpu.sync()

        incremental = (
            self.mode == "incremental"
            and registration.base is not None
            and registration.base.intact
        )
        # The non-VM payload is priced exactly as migration prices the
        # same state (shared packaging discipline).
        manifest = stream_manifest(pcb)
        payload = state_bytes(params) + stream_bytes(params, len(manifest))
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
        image.stream_refs = tuple(
            (fd, stream.path, stream.mode) for fd, stream in manifest
        )
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
            yield from host.cpu.consume(params.migration_state_cpu)
            yield from write_image(host.fs, store, image, payload + vm_bytes)
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
            host.cpu.sync()
            registration.dirty_mark = pcb.vm.dirty
        # Bound storage: drop generations beyond the configured keep
        # count (trimmed only after the new image sealed, so an intact
        # fallback always survives) and reclaim their backing files.
        for dropped in store.trim(pcb.pid):
            try:
                yield from host.fs.remove(dropped.path)
            except PACKAGE_EXCEPTIONS:
                pass  # lost-space only; the image metadata is gone
        self.checkpoints += 1
        self.incrementals += int(incremental)
        self.bytes_written += image.image_bytes

        now = sim.now
        source = f"ckptd:{host.name}"
        tracer = host.tracer
        if tracer.spans_enabled:
            root = tracer.record_span(
                CKPT_CHECKPOINT, source, started, now,
                pid=pcb.pid, seq=image.seq, mode=image.mode,
            )
            tracer.record_span(
                CKPT_WRITE, source, started, now, parent=root,
                bytes=image.image_bytes,
            )
        if tracer.enabled:
            tracer.emit(
                now, source, "checkpoint",
                pid=pcb.pid, seq=image.seq, mode=image.mode,
                bytes=image.image_bytes, progress=round(image.progress, 9),
            )
        return image

    # ------------------------------------------------------------------
    # Invariant-checker integration
    # ------------------------------------------------------------------
    def accounted_pids(self) -> Set[int]:
        """Registered pids whose state survives in an intact image —
        accounted for even while no kernel holds a runnable copy."""
        return {
            pid for pid in self.registry
            if self.store.latest_intact(pid) is not None
        }

    # ------------------------------------------------------------------
    # Statistics (the sweeps' plus the restart manager's)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "checkpoints": self.checkpoints,
            "incrementals": self.incrementals,
            "skipped_migrating": self.skipped_migrating,
            "torn_writes": self.torn_writes,
            "bytes_written": self.bytes_written,
            "restores": self.restart.restores,
            "torn_skipped": self.restart.torn_skipped,
            "unrecoverable": self.restart.unrecoverable,
            "failed_restores": self.restart.failed_restores,
        }
