"""The Sprite Internet protocol server [Che87].

Sprite put the TCP/IP stack in a *user-level* server process reached
through a pseudo-device: processes open ``/dev/net`` and make
socket-style requests; the server keeps all connection state.  The
migration payoff is the thesis's: because only the operating system
(the pdev plumbing) knows where the endpoints are, "Internet socket IPC
does not pose any particular problem for migration" — a process can
move mid-conversation and its connections simply follow.

The model implements the socket surface the workloads use: DGRAM
(UDP-like, unordered delivery to a port) and STREAM (TCP-like,
connection-oriented byte counts with buffering and blocking reads).
Payload contents are modelled by size, like file data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from collections import deque

from ..fs import PdevMaster
from ..kernel import Host
from ..sim import SimEvent

__all__ = ["InternetServer", "NET_PDEV_PATH", "SocketError"]

NET_PDEV_PATH = "/dev/net"


class SocketError(Exception):
    """Socket-level failures (port in use, not connected, refused)."""


@dataclass
class _Socket:
    sock_id: int
    kind: str                       # "dgram" | "stream"
    port: Optional[int] = None
    #: Datagrams: (src_port, nbytes) queue.  Streams: byte count buffered.
    datagrams: Deque[Tuple[int, int]] = field(default_factory=deque)
    buffered: int = 0
    peer: Optional[int] = None      # connected stream's peer socket id
    listening: bool = False
    pending_accepts: Deque[int] = field(default_factory=deque)
    closed: bool = False
    #: Wakeups for blocked receivers/accepters.
    readable: Optional[SimEvent] = None


class InternetServer:
    """The IP server: a user process serving socket ops over a pdev."""

    def __init__(self, home: Host):
        self.home = home
        self.master = PdevMaster(home.sim, "ipserver")
        home.pdevs.attach(self.master)
        self.sockets: Dict[int, _Socket] = {}
        self.ports: Dict[int, int] = {}      # port -> socket id
        self._ids = itertools.count(1)
        self.pcb = None
        self.requests_handled = 0
        self.bytes_switched = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Register /dev/net and run the server process."""
        def serve(proc):
            yield from proc.kernel.rpc.call(
                proc.kernel.fs.prefixes.route(NET_PDEV_PATH),
                "fs.register_pdev",
                (NET_PDEV_PATH, self.home.address, self.master.pdev_id),
            )
            while True:
                request = yield self.master.next_request()
                self.requests_handled += 1
                try:
                    reply = self._dispatch(request.message)
                except SocketError as err:
                    request.fail(err)
                    continue
                if reply is _BLOCKED:
                    # Blocking op: finish it in its own task so the
                    # server keeps serving other clients.
                    self._finish_blocking(proc, request)
                    continue
                request.respond(reply, size=128)

        self.pcb, _ = self.home.spawn_process(serve, name="ipserver")

    def _finish_blocking(self, proc, request) -> None:
        from ..sim import spawn

        def waiter():
            message = request.message
            sock = self._socket(message["sock"])
            while True:
                reply = self._try_complete(message, sock)
                if reply is not _BLOCKED:
                    request.respond(reply, size=128)
                    return
                if sock.readable is None:
                    sock.readable = SimEvent(self.home.sim, f"sock{sock.sock_id}")
                yield sock.readable.wait()

        spawn(self.home.sim, waiter(), name="ipserver-block", daemon=True)

    # ------------------------------------------------------------------
    # Pure state machine
    # ------------------------------------------------------------------
    def _socket(self, sock_id: int) -> _Socket:
        sock = self.sockets.get(sock_id)
        if sock is None or sock.closed:
            raise SocketError(f"bad socket {sock_id}")
        return sock

    def _wake(self, sock: _Socket) -> None:
        if sock.readable is not None and not sock.readable.fired:
            sock.readable.trigger()
        sock.readable = None

    def _dispatch(self, message: Dict):
        op = message["op"]
        if op == "socket":
            sock_id = next(self._ids)
            self.sockets[sock_id] = _Socket(sock_id=sock_id, kind=message["kind"])
            return sock_id
        if op == "bind":
            sock = self._socket(message["sock"])
            port = message["port"]
            if port in self.ports:
                raise SocketError(f"port {port} in use")
            self.ports[port] = sock.sock_id
            sock.port = port
            return port
        if op == "listen":
            sock = self._socket(message["sock"])
            sock.listening = True
            return None
        if op == "connect":
            sock = self._socket(message["sock"])
            target_id = self.ports.get(message["port"])
            if target_id is None:
                raise SocketError(f"connection refused: port {message['port']}")
            listener = self._socket(target_id)
            if not listener.listening:
                raise SocketError(f"connection refused: port {message['port']}")
            # Create the server-side endpoint of the new connection.
            server_end = _Socket(sock_id=next(self._ids), kind="stream")
            self.sockets[server_end.sock_id] = server_end
            server_end.peer = sock.sock_id
            sock.peer = server_end.sock_id
            listener.pending_accepts.append(server_end.sock_id)
            self._wake(listener)
            return None
        if op == "sendto":
            sock = self._socket(message["sock"])
            target_id = self.ports.get(message["port"])
            if target_id is None:
                raise SocketError(f"no listener on port {message['port']}")
            target = self._socket(target_id)
            target.datagrams.append((sock.port or 0, message["nbytes"]))
            self.bytes_switched += message["nbytes"]
            self._wake(target)
            return message["nbytes"]
        if op == "send":
            sock = self._socket(message["sock"])
            if sock.peer is None:
                raise SocketError(f"socket {sock.sock_id} not connected")
            peer = self._socket(sock.peer)
            peer.buffered += message["nbytes"]
            self.bytes_switched += message["nbytes"]
            self._wake(peer)
            return message["nbytes"]
        if op == "close":
            sock = self.sockets.get(message["sock"])
            if sock is not None:
                sock.closed = True
                if sock.port is not None:
                    self.ports.pop(sock.port, None)
                if sock.peer is not None:
                    peer = self.sockets.get(sock.peer)
                    if peer is not None:
                        peer.peer = None
                        self._wake(peer)   # readers see EOF
                self._wake(sock)
            return None
        if op in ("recv", "recvfrom", "accept"):
            sock = self._socket(message["sock"])
            return self._try_complete(message, sock)
        raise SocketError(f"unknown socket op {op!r}")

    def _try_complete(self, message: Dict, sock: _Socket):
        op = message["op"]
        if op == "accept":
            if sock.pending_accepts:
                return sock.pending_accepts.popleft()
            return _BLOCKED
        if op == "recvfrom":
            if sock.datagrams:
                src_port, nbytes = sock.datagrams.popleft()
                return {"from": src_port, "nbytes": nbytes}
            return _BLOCKED
        if op == "recv":
            if sock.buffered > 0:
                got = min(message["nbytes"], sock.buffered)
                sock.buffered -= got
                return got
            if sock.peer is None:
                return 0     # connection gone: EOF
            return _BLOCKED
        raise SocketError(f"unknown blocking op {op!r}")


#: Sentinel: the operation must wait for data/connections.
_BLOCKED = object()
