"""Fault-tolerance policies and the cluster checkpoint service.

:class:`FaultPolicy` names the three strategies the tradeoff study
compares (thesis §1.3 motivates migration partly *as* a fault-tolerance
mechanism; checkpoint/restart is the classic alternative, cf. Condor):

* ``migrate``    — proactive migration only (today's chaos behaviour:
  the orchestrator moves processes off hosts; a crash loses whatever
  was resident).
* ``checkpoint`` — periodic checkpoint/restart only: no proactive
  moves, crashed processes restart from their last intact image.
* ``hybrid``     — both: migration for load/eviction, checkpoints as
  the crash backstop.

:class:`CheckpointService` is the one-call wiring: it owns the image
store, one lazy :class:`~repro.checkpoint.daemon.CheckpointDaemon` per
host, and the :class:`~repro.checkpoint.restart.RestartManager`, and
hooks the latter into the fault injector's crash detection.  It also
publishes itself as ``cluster.checkpoints`` so the invariant checker
can count checkpointed-but-not-restarted images as accounted state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from ..kernel import Pcb
from ..migration.packaging import spawn_factory
from .daemon import CheckpointDaemon, Registration
from .image import CheckpointStore
from .restart import RestartManager

__all__ = ["CheckpointService", "FaultPolicy", "POLICIES", "policy_named"]


@dataclass(frozen=True)
class FaultPolicy:
    """What the cluster does about failures."""

    name: str
    proactive_migration: bool
    checkpointing: bool


#: The named policies of the migration-vs-checkpoint tradeoff study.
POLICIES: Dict[str, FaultPolicy] = {
    "migrate": FaultPolicy("migrate", True, False),
    "checkpoint": FaultPolicy("checkpoint", False, True),
    "hybrid": FaultPolicy("hybrid", True, True),
}

#: Long-form spellings accepted by the CLI.
_ALIASES = {
    "proactive-migrate": "migrate",
    "checkpoint-restart": "checkpoint",
}


def policy_named(name: str) -> FaultPolicy:
    """Resolve a policy by name or alias (raises ``KeyError``)."""
    key = _ALIASES.get(name, name)
    if key not in POLICIES:
        raise KeyError(
            f"unknown fault policy {name!r} "
            f"(choose from {sorted(POLICIES) + sorted(_ALIASES)})"
        )
    return POLICIES[key]


class CheckpointService:
    """Cluster-wide checkpoint/restart, zero-cost until used.

    Instantiating the service schedules nothing; the per-host daemons
    spawn on the first :meth:`register` call.  ``interval`` is the
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
        self.daemons: Dict[int, CheckpointDaemon] = {
            host.address: CheckpointDaemon(self, host)
            for host in cluster.hosts
        }
        self.restart = RestartManager(self)
        cluster.checkpoints = self
        if injector is not None:
            injector.restart = self.restart

    # ------------------------------------------------------------------
    def register(self, pcb: Pcb, program: Any, *args: Any) -> Registration:
        """Put ``pcb`` under checkpoint protection.

        ``program``/``args`` must recreate the process's work when
        re-spawned — the same zero-arg-factory discipline migration uses
        for remote exec (``packaging.spawn_factory``).  Restart-aware
        programs consult ``pcb.cpu_time``/``pcb.restored_progress`` to
        skip work their image already banked.
        """
        registration = Registration(
            pcb=pcb, factory=spawn_factory(program, *args)
        )
        self.registry[pcb.pid] = registration
        for address in sorted(self.daemons):
            self.daemons[address].ensure_running()
        return registration

    def unregister(self, pid: int) -> None:
        """Drop protection and every stored image (clean exit)."""
        self.registry.pop(pid, None)
        self.store.drop(pid)

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
    # Statistics (aggregated across daemons + restart manager)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        daemons = list(self.daemons.values())
        return {
            "checkpoints": sum(d.checkpoints for d in daemons),
            "incrementals": sum(d.incrementals for d in daemons),
            "skipped_migrating": sum(d.skipped_migrating for d in daemons),
            "torn_writes": sum(d.torn_writes for d in daemons),
            "bytes_written": sum(d.bytes_written for d in daemons),
            "restores": self.restart.restores,
            "torn_skipped": self.restart.torn_skipped,
            "unrecoverable": self.restart.unrecoverable,
            "failed_restores": self.restart.failed_restores,
        }
