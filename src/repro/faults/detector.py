"""Suspicion-based failure detection (deterministic accrual detector).

The injector's original crash reaction was a single fixed delay:
``crash_host`` sleeps the injector's ``detect_delay`` and then the whole
cluster acts at once.  That models Sprite's recovery lag but not its
*mechanism*, and it cannot express the failure modes an adversarial
network produces: a partitioned host looks exactly like a dead one, a
flapping host triggers the full reaction on every blip, and a host
declared dead that comes back has no reintegration path at all.

:class:`FailureDetector` replaces the fixed delay with a heartbeat-
driven accrual detector in the style of φ-accrual, discretized so it
stays deterministic:

* every ``params.heartbeat_period`` seconds the monitor samples each
  workstation: a heartbeat "arrives" iff the host is up **and** the
  fault fabric has a path from the monitor's vantage (the migd home
  host) — so asymmetric partitions produce genuine false suspicions;
* each missed heartbeat raises the host's **suspicion level** by one;
  at ``suspicion_threshold`` consecutive misses the host is *declared*
  dead and the survivors run the exact same reaction the fixed-delay
  path drives (:meth:`FaultInjector.notify_peers`);
* a heartbeat under a new crash epoch declares the host at once: it
  crashed and rebooted inside the suspicion window, and its old
  incarnation is as dead as one that stayed down;
* a declared-dead host whose heartbeats resume triggers an explicit
  **reconcile** instead of split-brain: stale foreign processes whose
  home already wrote them off are killed on the returning host, its
  shadows of processes the survivors orphan-killed are reaped, the
  host's file-server state is re-driven through the idempotent reopen
  protocol, and the event is counted as a *false* suspicion when the
  host never actually crashed in between;
* every reconcile bumps the host's **flap count**, which raises its
  personal declaration threshold by ``suspicion_flap_penalty`` misses
  (capped at ``suspicion_max_threshold``) — flapping hosts must stay
  silent longer before the cluster reacts to them again (damping).

Everything is deterministic: the monitor ticks at fixed offsets and
draws nothing from any RNG, so a fixed seed plus a fixed plan yields a
byte-identical trace with the detector enabled.  The detector is
opt-in (``FaultInjector.attach_detector()``); without it the injector
behaves exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator

from ..kernel import ProcState
from ..obs import FAULT_SUSPECT
from ..sim import Effect, Sleep, spawn

__all__ = ["FailureDetector", "HostWatch"]


@dataclass
class HostWatch:
    """Detector state for one monitored host."""

    address: int
    #: Consecutive missed heartbeats.
    suspicion: int = 0
    #: Misses required to declare this host dead (rises with flaps).
    threshold: int = 3
    declared: bool = False
    #: Reconciles seen (each one raises ``threshold`` — damping).
    flaps: int = 0
    #: ``migration.crash_epoch`` last observed while the host was
    #: answering heartbeats; if it is still unchanged when a declared
    #: host reappears, the host never actually crashed in between and
    #: the declaration was a *false* suspicion (partition/flap).
    epoch_seen: int = 0
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def level(self) -> float:
        """Suspicion level in [0, 1+): 1.0 means "declared"."""
        return self.suspicion / max(self.threshold, 1)


class FailureDetector:
    """Heartbeat monitor driving the injector's crash reaction.

    Created via :meth:`FaultInjector.attach_detector`; while attached,
    ``crash_host`` no longer schedules the fixed-delay reaction — this
    monitor declares (and un-declares) hosts instead.
    """

    def __init__(self, injector):
        self.injector = injector
        self.cluster = injector.cluster
        params = self.cluster.params
        self.period = params.heartbeat_period
        self.base_threshold = params.suspicion_threshold
        self.flap_penalty = params.suspicion_flap_penalty
        self.max_threshold = params.suspicion_max_threshold
        self.watches: Dict[int, HostWatch] = {}
        #: Counters for reports and tests.
        self.declared = 0
        self.reconciles = 0
        self.false_suspicions = 0
        self.reconciled_kills = 0
        self._suspect_spans: Dict[int, Any] = {}
        self._task = None

    # ------------------------------------------------------------------
    @property
    def anchor(self) -> int:
        """The monitor's vantage point on the network.

        Connectivity is judged from the migd home host (the natural
        central observer) or, without a load-sharing service, from the
        first file server — matching which partitions actually starve a
        host of service.
        """
        service = self.injector.service
        if service is not None:
            return service.migd.home.address
        if self.cluster.server_hosts:
            return self.cluster.server_hosts[0].address
        return self.cluster.hosts[0].address

    def start(self) -> "FailureDetector":
        if self._task is None:
            self._task = spawn(
                self.cluster.sim, self._monitor,
                name="failure-detector", daemon=True,
            )
        return self

    def watch(self, address: int) -> HostWatch:
        watch = self.watches.get(address)
        if watch is None:
            watch = HostWatch(address=address, threshold=self.base_threshold)
            self.watches[address] = watch
        return watch

    # ------------------------------------------------------------------
    def _heartbeat_ok(self, host) -> bool:
        if not host.node.up:
            return False
        anchor = self.anchor
        if host.address == anchor:
            return True
        return self.injector.fabric.connected(anchor, host.address)

    def _monitor(self) -> Generator[Effect, None, None]:
        # Half-period initial offset: samples interleave with the
        # availability daemons instead of phase-locking on them.
        yield Sleep(self.period / 2.0)
        while True:
            for host in self.cluster.hosts:
                watch = self.watch(host.address)
                if self._heartbeat_ok(host):
                    epoch = self._crash_epoch(host)
                    if not watch.declared and epoch != watch.epoch_seen:
                        # A new incarnation answers: the host crashed and
                        # rebooted inside the suspicion window.  The old
                        # one is dead, so declare it now.
                        self._declare(host, watch)
                    if watch.declared:
                        yield from self._reconcile(host, watch)
                    watch.suspicion = 0
                    watch.epoch_seen = epoch
                    continue
                watch.suspicion += 1
                if watch.suspicion == 1 or watch.declared:
                    # Trace only the first miss and post-declaration
                    # silence is not re-traced at all: suspicion ramps
                    # are reconstructable from period * threshold.
                    self._emit("suspicion", host=host.name,
                               level=round(watch.level, 3),
                               misses=watch.suspicion)
                if (not watch.declared
                        and watch.suspicion >= watch.threshold):
                    self._declare(host, watch)
            yield Sleep(self.period)

    def _declare(self, host, watch: HostWatch) -> None:
        """Suspicion crossed the threshold: run the survivor reaction."""
        watch.declared = True
        self.declared += 1
        tracer = self.cluster.tracer
        if tracer.spans_enabled:
            self._suspect_spans[host.address] = tracer.start_span(
                FAULT_SUSPECT, f"host:{host.name}",
                t=self.cluster.sim.now, address=host.address,
                misses=watch.suspicion, threshold=watch.threshold,
            )
        self._emit("declared_dead", host=host.name, address=host.address,
                   misses=watch.suspicion, threshold=watch.threshold)
        self.injector.notify_peers(host.address)

    def _reconcile(self, host, watch: HostWatch) -> Generator[Effect, None, None]:
        """A declared-dead host is answering heartbeats again.

        The survivors already wrote its work off; the returning host
        must not keep running copies the rest of the cluster has
        replaced or reaped (split-brain).  Kill the stale foreign
        processes, reap the shadows whose process the survivors killed,
        re-drive file-server recovery, and raise the host's
        declaration threshold so a flapping host stops triggering the
        full reaction on every blip.
        """
        watch.declared = False
        watch.suspicion = 0
        watch.flaps += 1
        watch.threshold = min(
            self.base_threshold + self.flap_penalty * watch.flaps,
            self.max_threshold,
        )
        self.reconciles += 1
        false_suspicion = self._crash_epoch(host) == watch.epoch_seen
        if false_suspicion:
            self.false_suspicions += 1
        killed = self._kill_disowned(host)
        self.reconciled_kills += killed
        self._reap_dangling_shadows(host)
        span = self._suspect_spans.pop(host.address, None)
        if span is not None:
            span.finish(t=self.cluster.sim.now, false_suspicion=false_suspicion,
                        killed=killed)
        self._emit("reconciled", host=host.name, address=host.address,
                   false_suspicion=false_suspicion, killed=killed,
                   threshold=watch.threshold)
        # Re-open the host's streams at every up server (idempotent
        # reopen protocol): servers that dropped the "dead" client's
        # state rebuild it, servers that never noticed ack the reopens.
        for server_host in self.cluster.server_hosts:
            if not server_host.node.up or not host.node.up:
                continue
            try:
                yield from host.fs.recover(server_host.address)
            except Exception:  # noqa: BLE001 - next tick retries
                continue

    def _kill_disowned(self, host) -> int:
        """Kill foreign processes the cluster no longer acknowledges.

        A foreign process on the returning host is *stale* when its
        home kernel no longer holds a MIGRATED shadow pointing here —
        the home reaped it at declaration time (and may already have
        restarted the work elsewhere).  Letting it run would be the
        split-brain this reconcile exists to prevent.
        """
        killed = 0
        kernel = host.kernel
        for pcb in sorted(kernel.procs.values(), key=lambda p: p.pid):
            if (pcb.state != ProcState.RUNNING
                    or pcb.current != host.address
                    or pcb.home == host.address):
                continue
            home_kernel = self.cluster.kernels.get(pcb.home)
            shadow = (home_kernel.procs.get(pcb.pid)
                      if home_kernel is not None else None)
            stale = (
                shadow is None
                or shadow.state != ProcState.MIGRATED
                or shadow.current != host.address
            )
            if not stale:
                continue
            if pcb.task is not None:
                pcb.task.abort(("declared-dead", host.address))
            kernel.procs.pop(pcb.pid, None)
            killed += 1
        return killed

    def _reap_dangling_shadows(self, host) -> None:
        """Reap the returning host's shadows whose process runs nowhere.

        While the host was declared dead, the survivors orphan-killed the
        processes it is home to; the shadows it kept of them would
        otherwise point at copies that are gone for ever.
        """
        running = {
            pid
            for kernel in self.cluster.kernels.values()
            for pid, pcb in kernel.procs.items()
            if pcb.state == ProcState.RUNNING and pcb.current == kernel.address
        }
        kernel = host.kernel
        for pcb in sorted(kernel.procs.values(), key=lambda p: p.pid):
            if pcb.state == ProcState.MIGRATED and pcb.pid not in running:
                kernel.reap_shadow(pcb)

    # ------------------------------------------------------------------
    def _crash_epoch(self, host) -> int:
        manager = self.cluster.managers.get(host.address)
        return manager.crash_epoch if manager is not None else 0

    def _emit(self, kind: str, **detail: Any) -> None:
        self.injector._emit(f"detector_{kind}", **detail)

    def stats(self) -> Dict[str, int]:
        return {
            "declared": self.declared,
            "reconciles": self.reconciles,
            "false_suspicions": self.false_suspicions,
            "reconciled_kills": self.reconciled_kills,
        }
