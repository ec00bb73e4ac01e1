"""Shared-medium local-area network model.

The thesis's cluster hangs off one 10 Mb/s Ethernet.  The model captures
the two properties migration cost depends on: a per-message latency and
a shared transmission medium, so concurrent bulk transfers (VM pages,
file flushes) slow each other down.

Nodes are registered with the LAN and receive :class:`Packet` objects in
their inbox channel.  Bulk transfers use :meth:`Lan.transfer`, which
charges transmission time without materializing per-block packets.

A message is one timed wait.  The medium is a FIFO server whose every
hold has a known length, so it is a timetable rather than a queue: a
sender reserves ``[start, start + size/bandwidth)`` with ``start`` the
later of now and the end of the last reservation, and sleeps once, to
the end of its wire time plus the propagation latency.  A sender that
is interrupted or aborted first gives its unused wire time back at that
instant and the reservations behind it move up (:meth:`Lan._give_back`).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Any, Deque, Dict, Generator, List, Optional

from ..config import ClusterParams
from ..sim import Channel, Effect, EventHandle, Simulator, Sleep, Tracer, spawn

from .errors import HostDownError, NetworkPartitionedError

__all__ = ["Packet", "NetNode", "Lan", "HostDownError", "NetworkPartitionedError"]


@dataclass(slots=True)
class Packet:
    """One message on the wire."""

    src: int
    dst: int
    kind: str
    payload: Any
    size: int
    send_time: float = 0.0
    #: Set by the fault fabric: the payload arrived damaged.  Receivers
    #: that verify checksums (:class:`~repro.net.RpcPort`) count and
    #: discard such packets instead of acting on garbage.
    corrupt: bool = False


class NetNode:
    """An addressable endpoint on the LAN."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.address: int = -1  # assigned by Lan.register
        self.inbox = Channel(sim, name=f"{name}.inbox")
        self.up = True
        #: Times the node crashed: its incarnation, bumped where ``up``
        #: goes False (``Host.crash``, ``FileServer.crash``).  The one
        #: crash count: the RPC boot id, the FS server's epoch and the
        #: migration layer's ``crash_epoch`` all read it.
        self.epoch = 0
        self.lan: Optional["Lan"] = None

    def __repr__(self) -> str:
        return f"<NetNode {self.name}@{self.address} {'up' if self.up else 'down'}>"


class _Wire(Effect):
    """One message's wait: its wire time on the medium, ``duration``,
    then ``flight`` seconds of propagation (and fabric delay).

    Binding it reserves the medium and arms the one wake-up, at the
    delivery instant; the floats are those of sleeping first to the end
    of the wire time and from there for the flight: ``(start +
    duration) + flight``.
    """

    __slots__ = ("lan", "duration", "flight", "start", "end", "_waiter",
                 "_handle")

    def __init__(self, lan: "Lan", duration: float, flight: float):
        self.lan = lan
        self.duration = duration
        self.flight = flight
        # start, end, _waiter and _handle are set by bind().

    def bind(self, waiter: Any) -> None:
        lan = self.lan
        sim = lan.sim
        start = sim.now
        if lan.params.net_shared_medium:
            timetable = lan._timetable
            if timetable:
                lan._settle(start)
            if lan._free_at > start:
                start = lan._free_at
            lan._free_at = start + self.duration
            timetable.append(self)
        self._waiter = waiter
        self.start = start
        self.end = end = start + self.duration
        time = end + self.flight
        if time > sim.now:
            # The wake-up is its own heap entry, as ``schedule_at``
            # would push it.
            self._handle = handle = EventHandle(time, waiter._resume, (None,), sim)
            heappush(sim._heap, (time, next(sim._seq), handle))
        else:
            self._handle = sim.schedule_at(time, waiter._resume, None)

    def cancel(self, waiter: Any) -> None:
        self._handle.cancel()
        lan = self.lan
        if self.end > lan.sim.now and lan.params.net_shared_medium:
            lan._give_back(self)


class Lan:
    """The shared network segment."""

    def __init__(
        self,
        sim: Simulator,
        params: Optional[ClusterParams] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.params = params or ClusterParams()
        self.tracer = tracer if tracer is not None else Tracer()
        self.nodes: Dict[int, NetNode] = {}
        self._addresses = itertools.count(1)
        #: The shared medium's timetable: the reservations whose wire
        #: time ``_busy_time`` does not count yet, in wire order (each
        #: starts where the one before it ends, or later).  Settled
        #: lazily: by the next sender, a cancellation, a reader.
        self._timetable: Deque[_Wire] = deque()
        #: End of the last reservation: where the next one may start.
        self._free_at = 0.0
        self._busy_time = 0.0
        #: Totals for metrics: messages and payload bytes carried.
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Messages lost to a full (bounded) destination inbox — the
        #: counted backpressure path: senders discover the loss by
        #: timeout and back off.
        self.inbox_overflows = 0
        #: Optional per-kind byte accounting ({packet kind: bytes});
        #: ``None`` until the observability layer installs a dict, so an
        #: unobserved run pays only an ``is not None`` test per message.
        self.kind_bytes: Optional[Dict[str, int]] = None
        #: Optional link-state fabric (partitions, per-link loss/delay);
        #: ``None`` until a fault injector installs one
        #: (:class:`repro.faults.LinkFabric`), so a fault-free run pays
        #: only an ``is not None`` test per message.
        self.fabric: Optional[Any] = None

    # ------------------------------------------------------------------
    def register(self, node: NetNode) -> int:
        node.address = next(self._addresses)
        node.lan = self
        if self.params.net_inbox_capacity > 0:
            node.inbox.capacity = self.params.net_inbox_capacity
        self.nodes[node.address] = node
        return node.address

    def transmission_time(self, size: int) -> float:
        return size / self.params.net_bandwidth

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> Generator[Effect, None, None]:
        """Transmit one message; delivers into the destination inbox.

        Holds the shared medium for the transmission time (if medium
        sharing is modelled), then delivers after the propagation
        latency.  Raises :class:`HostDownError` if the destination is
        down at delivery time.
        """
        dst = self.nodes.get(packet.dst)
        if dst is None:
            raise HostDownError(f"no node at address {packet.dst}")
        deliver, extra_delay, verdict = True, 0.0, None
        if self.fabric is not None:
            # Raises NetworkPartitionedError when no path exists;
            # ``None`` is the clean-delivery fast path.
            verdict = self.fabric.unicast_effects(packet.src, packet.dst)
            if verdict is not None:
                deliver, extra_delay = verdict.deliver, verdict.delay
        packet.send_time = self.sim.now
        params = self.params
        yield _Wire(self, packet.size / params.net_bandwidth,
                    params.net_latency + extra_delay)
        self.messages_sent += 1
        self.bytes_sent += packet.size
        if self.kind_bytes is not None:
            self.kind_bytes[packet.kind] = (
                self.kind_bytes.get(packet.kind, 0) + packet.size
            )
        if not deliver:
            # Lost in flight: the wire time was spent but nothing
            # arrives; the caller discovers the loss by timeout.
            if self.tracer.enabled:
                self.tracer.emit(
                    self.sim.now, "lan", "drop",
                    src=packet.src, dst=packet.dst, msg=packet.kind,
                )
            return
        if verdict is not None and verdict.duplicates:
            # A duplicating link delivers a second copy shortly after
            # the original (retransmit storm); the lag was drawn by the
            # fabric, so the schedule stays seed-deterministic.
            spawn(
                self.sim,
                self._deliver_duplicate(
                    packet, verdict.dup_delay, verdict.dup_corrupt
                ),
                name=f"lan-dup:{packet.kind}",
                daemon=True,
            )
        if not dst.up:
            raise HostDownError(f"host {dst.name} is down")
        if verdict is not None and verdict.corrupt:
            packet.corrupt = True
        self._deliver(dst, packet)

    def _deliver(self, dst: NetNode, packet: Packet) -> None:
        """Final hop into the destination inbox; a full bounded inbox is
        a counted drop (backpressure), never an exception."""
        if not dst.inbox.try_put(packet):
            self.inbox_overflows += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    self.sim.now, "lan", "inbox-full",
                    src=packet.src, dst=packet.dst, msg=packet.kind,
                )
            return
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now,
                "lan",
                "deliver",
                src=packet.src,
                dst=packet.dst,
                msg=packet.kind,
                size=packet.size,
            )

    def _deliver_duplicate(
        self, packet: Packet, lag: float, corrupt: bool
    ) -> Generator[Effect, None, None]:
        """Deliver the extra copy of a duplicated message after ``lag``."""
        yield Sleep(lag)
        dst = self.nodes.get(packet.dst)
        if dst is None or not dst.up:
            return
        copy = Packet(packet.src, packet.dst, packet.kind, packet.payload,
                      packet.size, send_time=packet.send_time,
                      corrupt=corrupt or packet.corrupt)
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, "lan", "duplicate",
                src=packet.src, dst=packet.dst, msg=packet.kind,
            )
        self._deliver(dst, copy)

    def transfer(self, src: int, dst: int, nbytes: int) -> Generator[Effect, None, None]:
        """Charge the wire time of a bulk transfer of ``nbytes``.

        Used for data that is modelled by size only (VM pages, file
        blocks); no packet object is delivered.
        """
        if nbytes <= 0:
            return
        dst_node = self.nodes.get(dst)
        if dst_node is not None and not dst_node.up:
            raise HostDownError(f"host {dst_node.name} is down")
        extra_delay = 0.0
        if self.fabric is not None:
            # Bulk data rides a retransmitting transport: loss shows up
            # as added delay, a partition as an unreachable peer.
            extra_delay = self.fabric.bulk(src, dst)
        params = self.params
        yield _Wire(self, nbytes / params.net_bandwidth,
                    params.net_latency + extra_delay)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.kind_bytes is not None:
            self.kind_bytes["bulk"] = self.kind_bytes.get("bulk", 0) + nbytes
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, "lan", "transfer", src=src, dst=dst, size=nbytes
            )

    def broadcast(
        self, packet: Packet, exclude: Optional[List[int]] = None
    ) -> Generator[Effect, None, None]:
        """Deliver one message to every up node (cheap on real Ethernet:
        the medium is held once regardless of receiver count)."""
        skip = set(exclude or ())
        skip.add(packet.src)
        yield _Wire(self, self.transmission_time(packet.size),
                    self.params.net_latency)
        self.messages_sent += 1
        self.bytes_sent += packet.size
        if self.kind_bytes is not None:
            self.kind_bytes[packet.kind] = (
                self.kind_bytes.get(packet.kind, 0) + packet.size
            )
        packet.send_time = self.sim.now
        fabric = self.fabric
        for address, node in sorted(self.nodes.items()):
            if address in skip or not node.up:
                continue
            if fabric is not None and not fabric.multicast(packet.src, address):
                continue
            copy = Packet(packet.src, address, packet.kind, packet.payload, packet.size)
            copy.send_time = packet.send_time
            node.inbox.try_put(copy)
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, "lan", "broadcast", src=packet.src, msg=packet.kind
            )

    # ------------------------------------------------------------------
    def _settle(self, now: float) -> None:
        """Count the wire time of every reservation over by ``now``."""
        timetable = self._timetable
        while timetable and timetable[0].end <= now:
            done = timetable.popleft()
            self._busy_time += done.end - done.start

    def _give_back(self, wire: _Wire) -> None:
        """``wire``'s sender was cancelled with wire time still ahead of
        it: the medium is free from now — or, if it had not started,
        from where it would have — and every reservation behind it moves
        up and arms its wake-up again."""
        sim = self.sim
        free = sim.now
        self._settle(free)
        timetable = self._timetable
        if wire.start > free:
            free = wire.start
        else:
            self._busy_time += free - wire.start  # it was the head
        index = timetable.index(wire)
        del timetable[index]
        for moved in itertools.islice(timetable, index, None):
            moved.start = free
            moved.end = free = free + moved.duration
            moved._handle.cancel()
            moved._handle = sim.schedule_at(
                free + moved.flight, moved._waiter._resume, None
            )
        self._free_at = free

    def utilization(self) -> float:
        """Fraction of time the medium has been busy."""
        now = self.sim.now
        self._settle(now)
        busy = self._busy_time
        if self._timetable and self._timetable[0].start < now:
            busy += now - self._timetable[0].start
        return busy / now if now > 0 else 0.0
