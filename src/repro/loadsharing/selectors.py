"""The alternative host-selection architectures of chapter 6.

* :class:`SharedFileSelector` — §6.3.1: availability lives in one file
  in the shared FS; hosts update their entries, requesters read the
  file and pick.  Decisions are distributed, so two requesters racing
  on the same snapshot can claim the same host (a *conflict*); claims
  are read-modify-write with no global lock, exactly the weakness that
  pushed Sprite to a central server.
* :class:`ProbabilisticSelector` — §6.3.3, the MOSIX design [BS85]:
  every host keeps a load vector and gossips its own entry to a random
  subset each period, aging what it hears.  No server, no shared state,
  but decisions ride on stale data.
* :class:`MulticastSelector` — §6.3.4, the V design [TL88]: no state at
  all; a requester multicasts "who is idle?" and takes the first
  responders.  One message per request — times every host on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Iterable, List, Optional, Sequence

from ..kernel import Host
from ..net import Packet
from ..sim import Channel, Effect, Sleep, first, spawn
from ..sim.random import Rng
from .base import HostSelector

__all__ = [
    "SharedFileSelector",
    "SharedFileBoard",
    "ProbabilisticSelector",
    "MulticastSelector",
    "LOAD_BOARD_PATH",
]

LOAD_BOARD_PATH = "/hosts/loadavg"


# ----------------------------------------------------------------------
# Shared file (§6.3.1)
# ----------------------------------------------------------------------
class SharedFileBoard:
    """Per-host daemon posting availability into the shared file."""

    def __init__(self, host: Host):
        self.host = host
        spawn(host.sim, self._loop, name=f"board:{host.name}", daemon=True)

    def _loop(self) -> Generator[Effect, None, None]:
        period = self.host.params.availability_period
        yield Sleep((self.host.address % 10) * period / 10.0)
        while True:
            yield from self.post_once()
            yield Sleep(period)

    def post_once(self) -> Generator[Effect, None, None]:
        entry = {
            "load": self.host.loadavg.effective,
            "available": self.host.is_available(),
            "claimed_by": None,
            "time": self.host.sim.now,
        }
        yield from self.host.fs.payload_write(
            LOAD_BOARD_PATH, {self.host.address: entry}, op="update"
        )


class SharedFileSelector(HostSelector):
    """Requester side: read the board, claim entries, hope for no race."""

    name = "shared-file"

    def request(
        self, n: int = 1, exclude: Sequence[int] = ()
    ) -> Generator[Effect, None, List[int]]:
        started = self._timed_request_start()
        excluded = set(exclude)
        excluded.add(self.host.address)
        board = yield from self.host.fs.payload_read(LOAD_BOARD_PATH)
        if not board:
            return self._timed_request_end(started, [])
        stale_after = 3 * self.host.params.availability_period
        now = self.host.sim.now
        candidates = [
            (address, entry)
            for address, entry in board.items()
            if entry.get("available")
            and entry.get("claimed_by") is None
            and address not in excluded
            and now - entry.get("time", 0) <= stale_after
        ]
        candidates.sort(key=lambda item: (item[1]["load"], item[0]))
        picked = [address for address, _entry in candidates[:n]]
        # Claim them: a separate write — the classic read-modify-write
        # window in which another requester can pick the same hosts.
        claims = {}
        for address, entry in candidates[:n]:
            if entry.get("claimed_by") is not None:
                self.metrics.conflicts += 1
                continue
            updated = dict(entry)
            updated["claimed_by"] = self.host.address
            claims[address] = updated
        if claims:
            yield from self.host.fs.payload_write(
                LOAD_BOARD_PATH, claims, op="update"
            )
        return self._timed_request_end(started, picked)

    def release(self, addresses: Iterable[int]) -> Generator[Effect, None, None]:
        addresses = list(addresses)
        if not addresses:
            return
        board = yield from self.host.fs.payload_read(LOAD_BOARD_PATH)
        if not board:
            return
        updates = {}
        for address in addresses:
            entry = board.get(address)
            if entry and entry.get("claimed_by") == self.host.address:
                updated = dict(entry)
                updated["claimed_by"] = None
                updates[address] = updated
        if updates:
            yield from self.host.fs.payload_write(
                LOAD_BOARD_PATH, updates, op="update"
            )


# ----------------------------------------------------------------------
# Probabilistic-distributed (§6.3.3, MOSIX)
# ----------------------------------------------------------------------
@dataclass
class _VectorEntry:
    load: float
    available: bool
    heard_at: float


class ProbabilisticSelector(HostSelector):
    """MOSIX-style gossip: each period send my entry to K random hosts.

    The selector side picks the best host it currently believes idle,
    discounting entries by age ([BS85]'s aging).  Conflicts show up as
    refusals at migration time; callers should retry with ``exclude``.
    """

    name = "probabilistic"
    GOSSIP_SERVICE = "sel.gossip"

    #: Peers each gossip round sends this host's vector to.
    FANOUT = 3

    def __init__(self, host: Host):
        super().__init__(host)
        self.vector: Dict[int, _VectorEntry] = {}
        self.peers: List[int] = []          # set by install()
        host.rpc.register(self.GOSSIP_SERVICE, self._rpc_gossip)
        spawn(host.sim, self._gossip_loop, name=f"gossip:{host.name}", daemon=True)

    def _rpc_gossip(self, args) -> Generator[Effect, None, None]:
        yield from self.host.cpu.consume(self.host.params.kernel_call_cpu)
        for address, (load, available, when) in args.items():
            known = self.vector.get(address)
            if known is None or when > known.heard_at:
                self.vector[address] = _VectorEntry(load, available, when)
        return None

    def _gossip_loop(self) -> Generator[Effect, None, None]:
        period = self.host.params.load_sample_period
        rng = None
        yield Sleep((self.host.address % 10) * period / 10.0)
        while True:
            yield Sleep(period)
            if not self.peers:
                continue
            if rng is None:
                rng = Rng(
                    self.host.params.seed ^ (self.host.address << 8)
                )
            self.vector[self.host.address] = _VectorEntry(
                self.host.loadavg.effective,
                self.host.is_available(),
                self.host.sim.now,
            )
            targets = rng.choice(
                self.peers, size=min(self.FANOUT, len(self.peers)), replace=False
            )
            payload = {
                address: (entry.load, entry.available, entry.heard_at)
                for address, entry in self.vector.items()
            }
            for target in sorted(targets):
                try:
                    yield from self.host.rpc.call(
                        target, self.GOSSIP_SERVICE, payload, timeout=2.0
                    )
                except Exception:  # noqa: BLE001 - peers may be down
                    continue

    def _aged_load(self, entry: _VectorEntry) -> float:
        """Old data counts for less: inflate load with age."""
        age = self.host.sim.now - entry.heard_at
        return entry.load + age / self.host.params.load_decay

    def request(
        self, n: int = 1, exclude: Sequence[int] = ()
    ) -> Generator[Effect, None, List[int]]:
        started = self._timed_request_start()
        yield from self.host.cpu.consume(self.host.params.kernel_call_cpu)
        excluded = set(exclude)
        excluded.add(self.host.address)
        stale_after = 10 * self.host.params.load_sample_period
        now = self.host.sim.now
        candidates = [
            (self._aged_load(entry), address)
            for address, entry in self.vector.items()
            if entry.available
            and address not in excluded
            and now - entry.heard_at <= stale_after
        ]
        candidates.sort()
        picked = [address for _load, address in candidates[:n]]
        for address in picked:
            # Local flood prevention: assume the host just got busier.
            entry = self.vector[address]
            entry.load += 1.0
        return self._timed_request_end(started, picked)

    def release(self, addresses: Iterable[int]) -> Generator[Effect, None, None]:
        yield from self.host.cpu.consume(self.host.params.kernel_call_cpu)


# ----------------------------------------------------------------------
# Multicast (§6.3.4, V)
# ----------------------------------------------------------------------
class _QueryFallback:
    """RPC-fallback chain link for :class:`MulticastSelector`.

    Answers the selector's query packets and hands every other packet
    to whatever fallback was installed before it.
    """

    __slots__ = ("selector", "previous")

    def __init__(self, selector: "MulticastSelector", previous) -> None:
        self.selector = selector
        self.previous = previous

    def __call__(self, packet: Packet) -> None:
        selector = self.selector
        if packet.kind == selector.QUERY_KIND:
            host = selector.host
            spawn(
                host.sim,
                selector._answer_query(packet),
                name=f"sel-answer:{host.name}",
                daemon=True,
            )
        elif self.previous is not None:
            self.previous(packet)


class MulticastSelector(HostSelector):
    """Stateless: broadcast the request, take the first responders."""

    name = "multicast"
    QUERY_KIND = "sel.query"
    OFFER_SERVICE = "sel.offer"

    #: How long a requester collects offers (seconds).
    RESPONSE_TIMEOUT = 0.05

    def __init__(self, host: Host):
        super().__init__(host)
        self._offers: Optional[Channel] = None
        host.rpc.register(self.OFFER_SERVICE, self._rpc_offer)
        host.rpc.fallback = _QueryFallback(self, host.rpc.fallback)

    # -- responder side ------------------------------------------------
    def _answer_query(self, packet: Packet) -> Generator[Effect, None, None]:
        host = self.host
        yield from host.cpu.consume(host.params.kernel_call_cpu)
        if not host.is_available():
            return
        try:
            yield from host.rpc.call(
                packet.src,
                self.OFFER_SERVICE,
                {"host": host.address, "load": host.loadavg.effective,
                 "query": packet.payload},
                timeout=2.0,
            )
        except Exception:  # noqa: BLE001 - requester may be gone
            return

    def _rpc_offer(self, args) -> Generator[Effect, None, None]:
        yield from self.host.cpu.consume(self.host.params.kernel_call_cpu)
        if self._offers is not None:
            self._offers.try_put(args)
        return None

    # -- requester side ----------------------------------------------------
    def request(
        self, n: int = 1, exclude: Sequence[int] = ()
    ) -> Generator[Effect, None, List[int]]:
        started = self._timed_request_start()
        excluded = set(exclude)
        excluded.add(self.host.address)
        self._offers = Channel(self.host.sim, name=f"offers:{self.host.name}")
        query_id = f"{self.host.address}:{self.host.sim.now:.6f}"
        yield from self.host.lan.broadcast(
            Packet(
                src=self.host.address,
                dst=0,
                kind=self.QUERY_KIND,
                payload=query_id,
                size=64,
            )
        )
        picked: List[int] = []
        deadline = self.host.sim.now + self.RESPONSE_TIMEOUT
        while len(picked) < n:
            remaining = deadline - self.host.sim.now
            if remaining <= 0:
                break
            index, offer = yield first(self._offers.get(), Sleep(remaining))
            if index == 1:
                break
            if offer["query"] != query_id:
                continue  # late answer to an earlier query
            if offer["host"] in excluded:
                continue
            picked.append(offer["host"])
        self._offers = None
        return self._timed_request_end(started, picked)

    def release(self, addresses: Iterable[int]) -> Generator[Effect, None, None]:
        # Stateless design: nothing to release.
        yield from self.host.cpu.consume(self.host.params.kernel_call_cpu)
