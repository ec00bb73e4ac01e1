"""The fault injector: executes a :class:`FaultPlan` against a cluster.

One injector owns all fault state for a cluster: it installs the
:class:`~repro.faults.LinkFabric` on the LAN, drives host crash/reboot
lifecycles, kills and restarts the migd server, crashes file servers
and re-runs client recovery, and keeps the event log the invariant
checker audits afterwards.

Determinism: the injector draws nothing itself — plans are data, the
fabric draws from ``cluster.rng.stream("faults.net")``, and detection
daemons run at fixed offsets — so a fixed seed plus a fixed plan yields
a byte-identical trace.

Zero cost when absent: without an injector, ``lan.fabric`` stays
``None`` and every fault hook in the kernel/FS/LAN is behind an
``is not None`` or ``.up`` test that a healthy run already made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set

from ..kernel import Host
from ..obs import FAULT_OUTAGE, SpanTracer
from ..sim import Effect, Sleep, spawn
from .fabric import LinkFabric
from .plan import FaultAction, FaultPlan

__all__ = ["FaultInjector", "FaultEvent"]


@dataclass(frozen=True)
class FaultEvent:
    """One thing the injector did, for reports and the invariant checker."""

    time: float
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:12.6f}] fault {self.kind:<16} {parts}"


class FaultInjector:
    """Applies faults — scripted via a plan or imperatively from tests.

    ``service`` is the cluster's :class:`~repro.loadsharing.service.\
LoadSharingService` (or anything with ``.migd``); without it the migd
    fault kinds are unavailable but everything else works.
    ``detect_delay`` is how long after a host crash the rest of the
    cluster acts on it; this argument is the one way to choose it, and
    ``None`` means the calibrated ten seconds.
    """

    def __init__(
        self,
        cluster,
        plan: Optional[FaultPlan] = None,
        service: Optional[Any] = None,
        detect_delay: Optional[float] = None,
    ):
        self.cluster = cluster
        self.plan = plan
        self.service = service
        self.detect_delay = (
            detect_delay
            if detect_delay is not None
            else cluster.params.crash_detect_delay
        )
        self.fabric = LinkFabric(
            rng=cluster.rng.stream("faults.net"), tracer=cluster.tracer
        )
        cluster.lan.fabric = self.fabric
        self.spans = SpanTracer.for_tracer(cluster.tracer)
        #: Everything the injector did, in order.
        self.log: List[FaultEvent] = []
        #: PCBs that were executing on a host when it crashed.
        self.lost_processes: List[Any] = []
        #: Addresses that have ever crashed (invariant checker uses this
        #: to excuse dangling shadows and lost pids).
        self.crashed_hosts: Set[int] = set()
        self.orphaned = 0
        self.reaped = 0
        #: Optional :class:`repro.checkpoint.RestartManager`; when set,
        #: crash detection offers it the crashed host's victims.  The
        #: call is synchronous and a no-op with nothing registered, so
        #: checkpoint-off runs schedule zero extra events.
        self.restart: Optional[Any] = None
        #: Optional :class:`repro.faults.FailureDetector`; while one is
        #: attached, crashes are *not* auto-detected after the fixed
        #: delay — the detector's heartbeat monitor declares them.
        self.detector: Optional[Any] = None
        self._outage_spans: Dict[int, Any] = {}
        self._started = False

    # ------------------------------------------------------------------
    # Plan driving
    # ------------------------------------------------------------------
    def start(self) -> "FaultInjector":
        """Launch the daemon that replays the plan over sim time."""
        if self._started:
            return self
        self._started = True
        if self.plan is not None and len(self.plan):
            spawn(self.cluster.sim, self._drive, name="fault-injector",
                  daemon=True)
        return self

    def _drive(self) -> Generator[Effect, None, None]:
        for action in self.plan.sorted_actions():
            delay = action.time - self.cluster.sim.now
            if delay > 0:
                yield Sleep(delay)
            self.apply(action)

    def apply(self, action: FaultAction) -> None:
        """Execute one action now (the plan driver calls this on time)."""
        kind = action.kind
        if kind == "host_crash":
            self.crash_host(self._host(action.target))
        elif kind == "host_reboot":
            self.reboot_host(self._host(action.target))
        elif kind == "migd_kill":
            self.kill_migd()
        elif kind == "migd_restart":
            self.restart_migd()
        elif kind == "server_crash":
            self.crash_server(action.target)
        elif kind == "server_restart":
            self.restart_server(action.target)
        elif kind == "partition":
            self.partition(*action.target)
        elif kind == "heal":
            self.heal()
        elif kind == "link":
            a, b = action.target
            self.set_link(a, b, **action.params)
        elif kind == "link_clear":
            a, b = action.target
            self.clear_link(a, b)
        else:  # pragma: no cover - FaultAction already validated kind
            raise ValueError(f"unknown fault kind {kind!r}")

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------
    def _host(self, target: Any) -> Host:
        if isinstance(target, Host):
            return target
        if isinstance(target, str):
            return self.cluster.host_by_name(target)
        return self.cluster.host_by_address(int(target))

    def _address(self, target: Any) -> int:
        if isinstance(target, (Host,)) or hasattr(target, "address"):
            return target.address
        if isinstance(target, str):
            return self.cluster.host_by_name(target).address
        return int(target)

    def _server_host(self, target: Any):
        if target is None:
            target = 0
        if hasattr(target, "server"):
            return target
        if isinstance(target, int) and target < len(self.cluster.server_hosts):
            return self.cluster.server_hosts[target]
        for server_host in self.cluster.server_hosts:
            if server_host.address == target or server_host.name == target:
                return server_host
        raise KeyError(f"no file server matching {target!r}")

    # ------------------------------------------------------------------
    # Host crash / reboot
    # ------------------------------------------------------------------
    def crash_host(self, host: Host) -> List[Any]:
        """Full-host crash; peers react after the detection delay."""
        lost = host.crash()
        self.lost_processes.extend(lost)
        self.crashed_hosts.add(host.address)
        if self.spans.enabled:
            self._outage_spans[host.address] = self.spans.start(
                FAULT_OUTAGE, f"host:{host.name}", t=self.cluster.sim.now,
                address=host.address,
            )
        self._emit("host_crash", host=host.name, address=host.address,
                   lost=len(lost))
        if self.detector is None:
            spawn(
                self.cluster.sim,
                self._detect_crash(host.address),
                name=f"crash-detect:{host.name}",
                daemon=True,
            )
        return lost

    def reboot_host(self, host: Host) -> None:
        host.reboot()
        span = self._outage_spans.pop(host.address, None)
        if span is not None:
            span.finish(t=self.cluster.sim.now)
        self._emit("host_reboot", host=host.name, address=host.address)

    def _detect_crash(self, address: int) -> Generator[Effect, None, None]:
        """After the detection delay, tell the survivors.

        Runs even if the host already rebooted: its home/foreign state
        was lost at crash time regardless, so peers must still reap
        shadows and orphans that depended on the old incarnation.
        """
        yield Sleep(self.detect_delay)
        self.notify_peers(address)

    def notify_peers(self, address: int) -> None:
        """Run the cluster-wide reaction to ``address`` being dead.

        The single reaction path, whether driven by the fixed detection
        delay or by the suspicion detector: surviving kernels orphan and
        reap, servers drop the client's state, migd forgets the host,
        and the restart manager re-homes checkpointed victims.
        """
        for peer_address in sorted(self.cluster.kernels):
            kernel = self.cluster.kernels[peer_address]
            if peer_address == address or not kernel.node.up:
                continue
            counts = kernel.on_peer_crashed(address)
            self.orphaned += counts["orphaned"]
            self.reaped += counts["reaped"]
        for server_host in self.cluster.server_hosts:
            server_host.server.client_crashed(address)
        if self.service is not None:
            self.service.migd.host_lost(address)
        if self.restart is not None:
            self.restart.host_lost(address)
        self._emit("crash_detected", address=address,
                   orphaned=self.orphaned, reaped=self.reaped)

    def attach_detector(self) -> Any:
        """Switch from fixed-delay detection to the suspicion-based
        :class:`~repro.faults.detector.FailureDetector` (started)."""
        if self.detector is None:
            from .detector import FailureDetector

            self.detector = FailureDetector(self).start()
        return self.detector

    # ------------------------------------------------------------------
    # migd
    # ------------------------------------------------------------------
    def kill_migd(self) -> None:
        if self.service is None:
            raise RuntimeError("no load-sharing service attached")
        self.service.migd.stop()
        self._emit("migd_kill")

    def restart_migd(self) -> None:
        if self.service is None:
            raise RuntimeError("no load-sharing service attached")
        self.service.migd.restart()
        self._emit("migd_restart")

    # ------------------------------------------------------------------
    # File servers
    # ------------------------------------------------------------------
    def crash_server(self, target: Any = 0) -> None:
        server_host = self._server_host(target)
        server_host.server.crash()
        self._emit("server_crash", server=server_host.name)

    def restart_server(self, target: Any = 0) -> None:
        """Bring a server back and re-drive every client's recovery."""
        server_host = self._server_host(target)
        server_host.server.restart()
        self._emit("server_restart", server=server_host.name)
        spawn(
            self.cluster.sim,
            self._drive_recovery(server_host.address),
            name=f"fs-recover:{server_host.name}",
            daemon=True,
        )

    def _drive_recovery(self, server_address: int) -> Generator[Effect, None, None]:
        """Sequentially re-open every client's streams at the reborn
        server (the thesis's idempotent reopen protocol).  A client that
        fails mid-recovery — say the server crashes *again* — is logged
        and skipped; the next restart re-drives it."""
        for host in self.cluster.hosts:
            if not host.node.up:
                continue
            try:
                reopened = yield from host.fs.recover(server_address)
            except Exception as exc:  # noqa: BLE001 - keep recovering others
                self._emit("recovery_failed", host=host.name,
                           server=server_address, error=type(exc).__name__)
                continue
            if reopened:
                self._emit("recovered", host=host.name,
                           server=server_address, reopened=reopened)

    # ------------------------------------------------------------------
    # Network
    # ------------------------------------------------------------------
    def partition(self, *groups) -> None:
        resolved = [[self._address(member) for member in group]
                    for group in groups]
        self.fabric.partition(resolved)
        self._emit("partition", groups=resolved)

    def heal(self) -> None:
        self.fabric.heal()
        self._emit("heal")

    def set_link(
        self,
        a: Any,
        b: Any,
        drop: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        corrupt: float = 0.0,
        reorder_window: float = 0.002,
    ) -> None:
        a, b = self._address(a), self._address(b)
        self.fabric.set_link(
            a, b, drop=drop, delay=delay, duplicate=duplicate,
            reorder=reorder, corrupt=corrupt, reorder_window=reorder_window,
        )
        detail: Dict[str, Any] = {"a": a, "b": b, "drop": drop, "delay": delay}
        # Adversarial knobs appear in the event only when set, so legacy
        # plans keep their byte-identical trace records.
        if duplicate > 0.0:
            detail["duplicate"] = duplicate
        if reorder > 0.0:
            detail["reorder"] = reorder
        if corrupt > 0.0:
            detail["corrupt"] = corrupt
        self._emit("link", **detail)

    def clear_link(self, a: Any, b: Any) -> None:
        a, b = self._address(a), self._address(b)
        self.fabric.clear_link(a, b)
        self._emit("link_clear", a=a, b=b)

    # ------------------------------------------------------------------
    def heal_all(self) -> None:
        """End-of-run cleanup: heal partitions, clear links, reboot
        every crashed host, so invariants can be checked on a quiesced
        cluster."""
        self.fabric.heal()
        self.fabric.clear_links()
        for host in self.cluster.hosts:
            if not host.node.up:
                self.reboot_host(host)

    def lost_pids(self) -> Set[int]:
        return {pcb.pid for pcb in self.lost_processes}

    # ------------------------------------------------------------------
    def _emit(self, kind: str, **detail: Any) -> None:
        now = self.cluster.sim.now
        self.log.append(FaultEvent(now, kind, detail))
        tracer = self.cluster.tracer
        if tracer.enabled:
            tracer.emit(now, "faults", kind, **detail)
