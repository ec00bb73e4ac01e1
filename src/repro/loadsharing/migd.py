"""The centralized host-selection server (the thesis's ``migd``).

The conclusion of chapter 6: a central, user-level server reached
through a pseudo-device wins on almost every axis.  Each workstation
runs a small notifier that sends migd its availability, load and input
idle time every availability period, whether or not they changed;
clients open ``/hosts/migd`` and send request/release messages.  The
server keeps global state, so it can hand out each idle host exactly
once, allocate fairly when demand exceeds supply, and tell a
dispossessed client when its host is reclaimed.

``migd`` runs as an ordinary user process on its home host — exactly as
in Sprite, where crashing migd never takes the kernel with it; restart
is cheap because hosts re-announce within one availability period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Iterable, List, Optional, Sequence, Set

from ..fs import OpenMode, PdevMaster
from ..kernel import Host
from ..sim import Effect, Sleep, spawn
from .base import HostSelector

__all__ = ["MigdServer", "CentralizedSelector", "AvailabilityNotifier", "MIGD_PATH"]

MIGD_PATH = "/hosts/migd"


@dataclass
class _HostInfo:
    address: int
    load: float = 0.0
    available: bool = False
    assigned_to: Optional[int] = None
    idle_since: float = 0.0
    #: Relative hardware speed (ch. 6: configuration is a selection
    #: criterion when several hosts are available).
    speed: float = 1.0


class MigdServer:
    """State and policy of the central server; runs as a user process."""

    def __init__(self, home: Host):
        self.home = home
        self.master = PdevMaster(home.sim, "migd")
        home.pdevs.attach(self.master)
        self.hosts: Dict[int, _HostInfo] = {}
        #: Outstanding assignments per requesting host (fairness).
        self.assignments: Dict[int, Set[int]] = {}
        self.requests_served = 0
        #: Host-selection requests load-shed because the server's offer
        #: queue was over ``params.migd_max_pending`` (when > 0).
        self.refused_busy = 0
        self.pcb = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Register the pdev name and launch the server process."""
        self.pcb, _ctx = self.home.spawn_process(
            self._register_and_serve, name="migd"
        )

    def _register_and_serve(self, proc):
        """The server program."""
        # Register /hosts/migd -> this host in the shared namespace.
        yield from proc.kernel.rpc.call(
            proc.kernel.fs.prefixes.route(MIGD_PATH),
            "fs.register_pdev",
            (MIGD_PATH, self.home.address, self.master.pdev_id),
        )
        while True:
            request = yield self.master.next_request()
            reply = self._handle(request.message, request.client_host)
            request.respond(reply, size=128)

    def stop(self) -> None:
        """Crash the server (fault injection): kill the process and
        detach the pseudo-device so clients fail fast."""
        if self.pcb is not None and self.pcb.task is not None:
            self.pcb.task.kill()
        self.home.pdevs.detach(self.master)

    def restart(self) -> None:
        """Restart after a crash: a fresh pdev, re-registered under the
        same name.  State rebuilds as hosts re-announce within one
        availability period — the thesis's argument that restarting a
        central server beats replicating it."""
        self.master = PdevMaster(self.home.sim, "migd")
        self.home.pdevs.attach(self.master)
        self.hosts.clear()
        self.assignments.clear()
        self.start()

    # ------------------------------------------------------------------
    # Message handling (pure state machine; costs are charged by the
    # pdev/RPC path that delivered the message).
    # ------------------------------------------------------------------
    def _handle(self, message: Dict, client_host: int) -> Dict:
        kind = message.get("op")
        if kind == "update":
            return self._on_update(message)
        if kind == "request":
            return self._on_request(message)
        if kind == "release":
            return self._on_release(message)
        return {"error": f"unknown op {kind!r}"}

    def _on_update(self, message: Dict) -> Dict:
        address = message["host"]
        info = self.hosts.setdefault(address, _HostInfo(address=address))
        was_available = info.available
        info.load = message["load"]
        info.available = message["available"]
        info.speed = message.get("speed", 1.0)
        if info.available and not was_available:
            info.idle_since = message["time"]
        if not info.available and info.assigned_to is not None:
            # Reclaimed under a client: the client learns via eviction;
            # drop the assignment so the host is not handed out again.
            self.assignments.get(info.assigned_to, set()).discard(address)
            info.assigned_to = None
        return {"ok": True}

    def _on_request(self, message: Dict) -> Dict:
        # Overload backpressure: when the inbound queue is deeper than
        # the configured bound, shed *selection* work (the cheapest
        # request to redo) with an explicit busy verdict instead of
        # serving stale grants late.  Updates and releases are never
        # shed — dropping them would rot the global state the grants
        # are computed from.
        cap = self.home.params.migd_max_pending
        if cap > 0 and len(self.master.requests) > cap:
            self.refused_busy += 1
            return {"hosts": [], "busy": True}
        self.requests_served += 1
        client = message["client"]
        wanted = message.get("n", 1)
        exclude = set(message.get("exclude", ()))
        exclude.add(client)
        candidates = [
            info
            for info in self.hosts.values()
            if info.available and info.assigned_to is None
            and info.address not in exclude
        ]
        # Fastest hardware first (ch. 6's configuration criterion), then
        # longest-idle: hosts idle a long time tend to stay idle [ML87].
        candidates.sort(
            key=lambda info: (-info.speed, info.idle_since, info.address)
        )
        mine = self.assignments.setdefault(client, set())
        # Fairness: when several clients hold assignments, cap each at
        # an equal share of the idle pool (but always allow one).
        other_clients = sum(
            1 for c, held in self.assignments.items() if held and c != client
        )
        if other_clients:
            pool = len(candidates) + sum(len(h) for h in self.assignments.values())
            fair_share = max(1, pool // (other_clients + 1))
            allowance = min(wanted, max(0, fair_share - len(mine)))
        else:
            allowance = wanted
        granted: List[int] = []
        for info in candidates[:allowance]:
            info.assigned_to = client
            mine.add(info.address)
            granted.append(info.address)
        return {"hosts": granted}

    def _on_release(self, message: Dict) -> Dict:
        client = message["client"]
        released = 0
        for address in message.get("hosts", ()):
            info = self.hosts.get(address)
            if info is not None and info.assigned_to == client:
                info.assigned_to = None
                released += 1
            self.assignments.get(client, set()).discard(address)
        return {"released": released}

    def host_lost(self, address: int) -> None:
        """Crash detection: stop handing out a host that went silent.

        In real Sprite the server would notice missed updates; the
        fault layer drives this explicitly after the detection delay.
        """
        info = self.hosts.get(address)
        if info is None:
            return
        info.available = False
        if info.assigned_to is not None:
            self.assignments.get(info.assigned_to, set()).discard(address)
            info.assigned_to = None

    # ------------------------------------------------------------------

class AvailabilityNotifier:
    """Per-host daemon that sends migd an update through the pdev every
    ``availability_period`` (5 s), whether or not anything changed."""

    def __init__(self, host: Host):
        self.host = host
        self._stream = None
        spawn(host.sim, self._loop, name=f"availd:{host.name}", daemon=True)

    def _loop(self) -> Generator[Effect, None, None]:
        period = self.host.params.availability_period
        # Stagger start-up so a cluster's notifiers don't phase-lock.
        yield Sleep((self.host.address % 10) * period / 10.0)
        while True:
            if not self.host.node.up:
                # Crashed host: say nothing; the stream died with the
                # kernel, so re-open it on the first post-reboot tick
                # (re-announcing within one availability period).
                self._stream = None
                yield Sleep(period)
                continue
            try:
                yield from self._send_update()
            except Exception:  # noqa: BLE001 - migd may not be up yet
                self._stream = None
            yield Sleep(period)

    def _send_update(self) -> Generator[Effect, None, None]:
        if self._stream is None:
            self._stream = yield from self.host.fs.open(MIGD_PATH, OpenMode.READ_WRITE)
        available = self.host.is_available()
        yield from self.host.fs.pdev_request(
            self._stream,
            {
                "op": "update",
                "host": self.host.address,
                "load": self.host.loadavg.effective,
                "input_idle": self.host.input_idle_seconds(),
                "available": available,
                "time": self.host.sim.now,
                "speed": self.host.cpu.speed,
            },
            timeout=2.0,
        )


class CentralizedSelector(HostSelector):
    """Client side of migd: one pdev round trip per request/release.

    Fault model (thesis §6): when migd or its host is down, a request
    degrades to "no hosts" after a short timeout — the caller falls
    back to local execution — and the cached pdev stream is dropped so
    the next request re-resolves a restarted server.
    """

    name = "centralized"
    REQUEST_TIMEOUT = 2.0

    def __init__(self, host: Host):
        super().__init__(host)
        self._stream = None
        self.failures = 0

    def _ensure_stream(self) -> Generator[Effect, None, None]:
        if self._stream is None:
            self._stream = yield from self.host.fs.open(MIGD_PATH, OpenMode.READ_WRITE)

    def _exchange(self, message: Dict) -> Generator[Effect, None, Optional[Dict]]:
        try:
            yield from self._ensure_stream()
            reply = yield from self.host.fs.pdev_request(
                self._stream, message, timeout=self.REQUEST_TIMEOUT
            )
            return reply
        except Exception:  # noqa: BLE001 - degrade, don't crash the caller
            self.failures += 1
            self._stream = None
            return None

    def request(
        self, n: int = 1, exclude: Sequence[int] = ()
    ) -> Generator[Effect, None, List[int]]:
        started = self._timed_request_start()
        reply = yield from self._exchange(
            {
                "op": "request",
                "client": self.host.address,
                "n": n,
                "exclude": list(exclude),
            }
        )
        granted = reply.get("hosts", []) if reply else []
        return self._timed_request_end(started, granted)

    def release(self, addresses: Iterable[int]) -> Generator[Effect, None, None]:
        addresses = list(addresses)
        if not addresses:
            return
        yield from self._exchange(
            {"op": "release", "client": self.host.address, "hosts": addresses}
        )
