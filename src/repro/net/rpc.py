"""Sprite-style kernel-to-kernel remote procedure calls [Wel86, BN84].

Each host owns an :class:`RpcPort` bound to its LAN node.  Services are
registered by name; handlers are generator coroutines executed on the
*server's* simulator tasks, charging the server's CPU.  The caller's
``call`` generator blocks until the reply has crossed the wire back.

Failure model: no call waits for ever.  A caller with no reply within
its ``timeout`` *probes*, re-sending the request under the same id
[Wel86].  A server that rebooted since it took the request fails the
call with :class:`RpcError`, finished or not; otherwise one still
running it (or shipping its reply) acks the probe, which renews the
caller's budget; one that finished it replays the reply; one that never
saw it runs it.  ``params.rpc_retries + 1`` silent waits in a row
surface as :class:`RpcTimeout`.  Remote
handler exceptions are re-raised at the caller, as a forwarded Sprite
kernel call returns the remote error code.

Delivery model: probes make every call *at-least-once* on the wire,
and an adversarial fabric can duplicate requests outright.  The server
side therefore enforces **exactly-once execution**: every logical call
carries a per-port monotonic request id (shared by its probes), and a
bounded dedup cache answers duplicates instead of re-running the
handler.  Corrupted requests fail the checksum check and are counted
and dropped; the caller's probe brings them back.  A handler may be
registered ``idempotent=True`` to opt out of dedup (read-only services;
re-execution is harmless and the cache is spared), which the
``rpc-idempotency`` lint rule audits.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Set, Tuple

from ..config import ClusterParams
from ..obs.spans import RPC_CALL, RPC_SERVE
from ..sim import TIMED_OUT, Cpu, Effect, SimEvent, Simulator, Sleep, Task
from ..sim.random import Rng
from ..sim.tasks import _Waiter
from .errors import RetryLaterError, RpcError, RpcTimeout
from .lan import HostDownError, Lan, NetNode, NetworkPartitionedError, Packet

__all__ = ["RpcPort", "RpcStats", "RpcTimeout", "RpcError", "Reply"]

#: Default request/reply payload sizes in bytes (small control messages).
DEFAULT_REQUEST_SIZE = 256
DEFAULT_REPLY_SIZE = 128


@dataclass
class Reply:
    """Wrap a handler's return value to control the reply's wire size."""

    result: Any
    size: int = DEFAULT_REPLY_SIZE


#: Name of every reply event.  A reply is triggered in one place,
#: ``RpcPort._ship_reply``, behind a ``fired`` test, so the only reader
#: of the name — ``SimEvent``'s "triggered twice" error — is not reached.
_REPLY = "rpc-reply"


@dataclass(slots=True)
class _Request:
    service: str
    args: Any
    reply_event: SimEvent
    reply_to: int
    reply_size_hint: int
    #: Span id of the caller's ``rpc.call`` span (None when spans are
    #: off).  The server records it on its ``rpc.serve`` span, giving
    #: the critical-path analysis an explicit cross-host causal edge.
    caller_sid: Optional[int] = None
    #: Per-port monotonic id of the *logical* call: every probe of one
    #: ``call()`` reuses it, so the server can recognize duplicates.
    req_id: int = 0
    #: Probes sent, the latest one acked, and replies now on the wire.
    probes: int = 0
    acked: int = 0
    shipping: int = 0


Handler = Callable[[Any], Generator[Effect, None, Any]]


class _DedupEntry:
    """Server-side memory of one executed (or executing) request."""

    __slots__ = ("done", "outcome", "failure", "reply_size", "epoch")

    def __init__(self, epoch: int) -> None:
        self.done = False
        self.outcome: Any = None
        self.failure: Optional[BaseException] = None
        self.reply_size = DEFAULT_REPLY_SIZE
        #: The node's epoch at arrival; a crash since ends the execution.
        self.epoch = epoch


class RpcStats:
    """Optional per-service call/byte accounting for one port.

    A port carries ``stats=None`` by default; the observability layer
    (``ClusterObservability.install``) attaches an instance, so an
    unobserved run pays only an ``is not None`` test per call.
    """

    __slots__ = ("calls", "call_bytes", "served", "reply_bytes")

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.call_bytes: Dict[str, int] = {}
        self.served: Dict[str, int] = {}
        self.reply_bytes: Dict[str, int] = {}

    def on_call(self, service: str, nbytes: int) -> None:
        self.calls[service] = self.calls.get(service, 0) + 1
        self.call_bytes[service] = self.call_bytes.get(service, 0) + nbytes

    def on_serve(self, service: str, nbytes: int) -> None:
        self.served[service] = self.served.get(service, 0) + 1
        self.reply_bytes[service] = self.reply_bytes.get(service, 0) + nbytes


class _Receiver(_Waiter):
    """A port's receive loop: a waiter parked on its inbox's ``get``
    effect, with no task around it.

    It makes the ``defer`` calls of a daemon task looping on
    ``inbox.get()``, in that task's order, so the schedule cannot tell
    the two apart: its start is one deferred event, as a task's first
    resume is; each packet it is handed is dispatched (a handler task
    spawned, a checksum drop counted, the fallback called) before it
    parks again; and a closed inbox ends it.  ``name`` is such a task's,
    for the engine profiler.  It is not counted in ``sim.live_tasks``.
    """

    __slots__ = ("port", "sim", "name", "_get")

    def __init__(self, port: "RpcPort"):
        self.port = port
        self.sim = port.sim
        self.name = f"rpc-server:{port.node.name}"
        self._get = port.node.inbox.get()
        self.sim.defer(self._listen)

    def _listen(self) -> None:
        self._get.bind(self)

    def _resume(self, packet: Packet) -> None:
        port = self.port
        if packet.corrupt:
            # The kernel verifies the payload checksum before dispatch;
            # a damaged packet is counted and discarded (the sender's
            # probe brings it back).
            port.checksum_failures += 1
            if port.tracer.enabled:
                port.tracer.emit(
                    self.sim.now, f"rpc:{port.node.name}",
                    "checksum-drop", src=packet.src, msg=packet.kind,
                )
        elif packet.kind == "rpc-request" and isinstance(packet.payload, _Request):
            request = packet.payload
            name = port._handler_names.get(request.service)
            if name is None:
                name = f"rpc:{request.service}@{port.node.name}"
                port._handler_names[request.service] = name
            Task(self.sim, port._handle(request), name, True)
        elif port.fallback is not None:
            port.fallback(packet)
        self._get.bind(self)

    def _throw(self, exc: BaseException) -> None:
        pass  # the inbox closed (ChannelClosed): stop receiving


class RpcPort:
    """One host's RPC endpoint: server dispatch plus client calls."""

    def __init__(
        self,
        sim: Simulator,
        lan: Lan,
        node: NetNode,
        cpu: Optional[Cpu] = None,
        params: Optional[ClusterParams] = None,
    ):
        self.sim = sim
        self.lan = lan
        self.node = node
        self.cpu = cpu
        self.params = params or lan.params
        self.tracer = lan.tracer
        self._services: Dict[str, Handler] = {}
        #: Services registered ``idempotent=True`` (dedup opted out).
        self._idempotent: Set[str] = set()
        #: Receives packets that are not RPC requests (e.g. multicast
        #: host-selection queries); set by higher layers.
        self.fallback: Optional[Callable[[Packet], None]] = None
        #: Metrics.
        self.calls_made = 0
        self.calls_served = 0
        #: Exactly-once machinery: request-id source, the bounded dedup
        #: cache keyed ``(client, req_id)``, and its counters.
        self._req_seq = 0
        self._dedup: Dict[Tuple[int, int], _DedupEntry] = {}
        self.duplicates_suppressed = 0
        self.replays_sent = 0
        self.checksum_failures = 0
        #: Handler executions that ran twice for one logical request —
        #: the exactly-once invariant (`InvariantChecker`) asserts this
        #: stays zero.  Tracked over a bounded recent-key window, four
        #: dedup caches long (a running request keeps its dedup entry,
        #: so only one evicted after it finished can be re-run).
        self.double_executions = 0
        self._served_keys: Dict[Tuple[int, int], int] = {}
        self._audit_cap = 4 * self.params.rpc_dedup_cache
        #: Optional per-service accounting; installed by the obs layer.
        self.stats: Optional[RpcStats] = None
        #: Lazily-seeded RNG for retry jitter (deterministic per port).
        self._backoff_rng = None
        #: Handler task names, per service.
        self._handler_names: Dict[str, str] = {}
        _Receiver(self)

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def register(
        self, service: str, handler: Handler, idempotent: bool = False
    ) -> None:
        """Register ``handler`` for ``service`` (replacing any previous).

        ``idempotent=True`` opts the service out of the exactly-once
        dedup cache: safe only for handlers whose re-execution is
        indistinguishable from a single execution (read-only probes,
        pure cost models).  The ``rpc-idempotency`` lint rule flags
        opt-outs whose handlers mutate server state.
        """
        self._services[service] = handler
        if idempotent:
            self._idempotent.add(service)
        else:
            self._idempotent.discard(service)

    def _handle(self, request: _Request) -> Generator[Effect, None, None]:
        # Exactly-once: a duplicate of a known request never reaches the
        # handler.  A finished one is replayed; a probe of a running one
        # is acknowledged, and the running execution's reply answers the
        # call, whose every copy shares one reply event.
        if request.shipping and request.acked < request.probes:
            # The reply is on the wire: the ack lets it answer the call.
            yield from self._ack(request)
            return
        entry: Optional[_DedupEntry] = None
        if request.req_id and request.service not in self._idempotent:
            key = (request.reply_to, request.req_id)
            entry = self._dedup.get(key)
            if entry is not None:
                self.duplicates_suppressed += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        self.sim.now, f"rpc:{self.node.name}", "dup-request",
                        service=request.service, client=request.reply_to,
                        req=request.req_id, done=entry.done,
                    )
                if entry.epoch != self.node.epoch:
                    # The server crashed and rebooted since it took the
                    # request: what it ran or recorded died with it.
                    yield from self._ship_reply(
                        request, None,
                        RpcError(f"{request.service} on {self.node.name}: "
                                 "server rebooted during the call"),
                        DEFAULT_REPLY_SIZE,
                    )
                elif entry.done:
                    yield from self._ship_reply(
                        request, entry.outcome, entry.failure,
                        entry.reply_size, replay=True,
                    )
                elif request.acked < request.probes:
                    yield from self._ack(request)
                return
            entry = _DedupEntry(self.node.epoch)
            self._dedup[key] = entry
            if len(self._dedup) > self.params.rpc_dedup_cache:
                # Forget the oldest finished request.  A running one is
                # kept however long it runs: its caller still probes.
                for old, held in self._dedup.items():
                    if held.done:
                        del self._dedup[old]
                        break
        span = None
        if self.tracer.spans_enabled:
            span = self.tracer.start_span(
                RPC_SERVE, f"rpc:{self.node.name}", t=self.sim.now,
                service=request.service, client=request.reply_to,
                caller_sid=request.caller_sid,
            )
        handler = self._services.get(request.service)
        outcome: Any
        failure: Optional[BaseException] = None
        if handler is None:
            failure = RpcError(
                f"no service {request.service!r} on {self.node.name}"
            )
            outcome = None
        else:
            if request.req_id and request.service not in self._idempotent:
                # Exactly-once audit: count executions per logical
                # request over a bounded recent window.
                akey = (request.reply_to, request.req_id)
                count = self._served_keys.get(akey, 0) + 1
                self._served_keys[akey] = count
                if count > 1:
                    self.double_executions += 1
                elif len(self._served_keys) > self._audit_cap:
                    self._served_keys.pop(next(iter(self._served_keys)))
            if self.cpu is not None:
                yield from self.cpu.consume(self.params.rpc_cpu_overhead)
            try:
                outcome = yield from handler(request.args)
            except RpcError as err:
                failure = err
                outcome = None
            except Exception as err:  # noqa: BLE001 - remote errors cross the wire
                failure = err
                outcome = None
        self.calls_served += 1
        reply_size = request.reply_size_hint
        if isinstance(outcome, Reply):
            reply_size = outcome.size
            outcome = outcome.result
        if self.stats is not None:
            self.stats.on_serve(request.service, max(reply_size, 1))
        if entry is not None:
            entry.done = True
            entry.outcome = outcome
            entry.failure = failure
            entry.reply_size = max(reply_size, 1)
            if isinstance(failure, RetryLaterError):
                # Busy refusals are transient and effect-free (admission
                # is checked before any state changes): forget the
                # request so the client's backed-off retry re-attempts
                # admission instead of replaying "busy" forever — and
                # drop the audit key so that legitimate re-execution is
                # not miscounted as a double execution.
                akey = (request.reply_to, request.req_id)
                self._dedup.pop(akey, None)
                self._served_keys.pop(akey, None)
        yield from self._ship_reply(request, outcome, failure, reply_size,
                                    span=span)

    def _ack(self, request: _Request) -> Generator[Effect, None, None]:
        """Tell a probing caller that its request is still running, or
        that its reply is on the wire."""
        probes = request.probes
        try:
            yield from self.lan.transfer(
                self.node.address, request.reply_to, DEFAULT_REPLY_SIZE
            )
        except HostDownError:
            return  # the caller went down; nobody to tell
        request.acked = probes

    def _ship_reply(
        self,
        request: _Request,
        outcome: Any,
        failure: Optional[BaseException],
        reply_size: int,
        span: Any = None,
        replay: bool = False,
    ) -> Generator[Effect, None, None]:
        """Ship one reply across the wire, then wake the caller."""
        if request.reply_event.fired:
            return  # a copy of an already-answered call
        if not self.node.up:
            if span is not None:
                span.finish(self.sim.now, outcome="server-down")
            return  # server crashed mid-call: the caller's probe finds out.
        request.shipping += 1
        try:
            yield from self.lan.transfer(
                self.node.address, request.reply_to, max(reply_size, 1)
            )
        except HostDownError:
            if span is not None:
                span.finish(self.sim.now, outcome="caller-down")
            return  # caller went down; nothing to deliver to.
        finally:
            request.shipping -= 1
        if span is not None:
            span.finish(
                self.sim.now,
                outcome="error" if failure is not None else "ok",
            )
        if replay:
            self.replays_sent += 1
        if request.reply_event.fired:
            return  # answered while this reply was on the wire
        if failure is not None:
            request.reply_event.fail(failure)
        else:
            request.reply_event.trigger(outcome)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def retry_backoff(self, attempt: int) -> float:
        """Delay before retry ``attempt`` (0-based): jittered exponential.

        Base doubles per attempt up to ``params.rpc_backoff_cap``; the
        jitter factor comes from a per-port RNG seeded from
        ``params.seed`` and the node name, so runs are reproducible but
        callers that lost the same host do not retry in lockstep.
        Callers running their own retry loops (e.g. migration rollback)
        use it too, so every retrier on a host shares one jitter stream.
        """
        params = self.params
        # 2.0 ** 1024 overflows; every unbounded retry loop gets here
        # eventually, and the cap has long since taken over by then.
        delay = min(
            params.rpc_backoff_base * (2.0 ** min(attempt, 1023)),
            params.rpc_backoff_cap,
        )
        jitter = params.rpc_backoff_jitter
        if jitter > 0.0:
            rng = self._backoff_rng
            if rng is None:
                rng = Rng(
                    (params.seed << 32)
                    ^ zlib.crc32(f"rpc-backoff:{self.node.name}".encode())
                )
                self._backoff_rng = rng
            delay *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
        return delay

    def call(
        self,
        dst: int,
        service: str,
        args: Any = None,
        size: int = DEFAULT_REQUEST_SIZE,
        reply_size: int = DEFAULT_REPLY_SIZE,
        timeout: float = "default",  # type: ignore[assignment]
    ) -> Generator[Effect, None, Any]:
        """Invoke ``service`` on the host at address ``dst``.

        Usage: ``result = yield from port.call(dst, "proc.migrate", args)``.
        ``timeout`` (``params.rpc_timeout`` by default) is how long the
        caller waits before it probes; bulk and blocking calls pass
        ``params.rpc_probe_interval``.
        """
        timeout = (self.params.rpc_timeout if timeout == "default"
                   else float(timeout))
        attempts = self.params.rpc_retries + 1
        if self.cpu is not None:
            yield from self.cpu.consume(self.params.rpc_cpu_overhead)
        span = None
        if self.tracer.spans_enabled:
            span = self.tracer.start_span(
                RPC_CALL, f"rpc:{self.node.name}", t=self.sim.now,
                dst=dst, service=service, bytes=size,
            )
        # One id per *logical* call: probes reuse it, so the server can
        # dedup them against the first delivered transmission.
        self._req_seq += 1
        req_id = self._req_seq
        # Positional: keywords cost more to bind.
        request = _Request(
            service, args, SimEvent(self.sim, _REPLY), self.node.address,
            reply_size, span.sid if span is not None else None, req_id,
        )
        last_error: Optional[BaseException] = None
        sent = silent = 0
        while True:
            packet = Packet(
                self.node.address, dst, "rpc-request", request,
                min(size, DEFAULT_REQUEST_SIZE) if request.acked else size,
            )
            sent += 1
            self.calls_made += 1
            if self.stats is not None:
                self.stats.on_call(service, size)
            if self.tracer.enabled:
                self.tracer.emit(
                    self.sim.now, f"rpc:{self.node.name}", "call", dst=dst, service=service
                )
            try:
                yield from self.lan.send(packet)
            except HostDownError as err:
                last_error = err
            else:
                try:
                    value = yield request.reply_event.wait(timeout)
                except RetryLaterError as err:
                    # Explicit backpressure: the server forgot the
                    # request, so the next attempt sends it afresh —
                    # never surfaced as a timeout or host death unless
                    # retries exhaust.
                    last_error = err
                    request = _Request(
                        service, args, SimEvent(self.sim, _REPLY),
                        self.node.address, reply_size, request.caller_sid,
                        req_id,
                    )
                else:
                    if value is not TIMED_OUT:
                        if span is not None:
                            span.finish(self.sim.now, outcome="ok", attempts=sent)
                        return value
                    if request.probes and request.acked == request.probes:
                        # The server is still running the request, or its
                        # reply is on the wire: the ack renews the budget,
                        # and the next probe goes out at once.
                        silent = 0
                        request.probes += 1
                        continue
                    last_error = RpcTimeout(
                        f"{service} on host {dst} timed out after {timeout}s"
                    )
                    request.probes += 1
            silent += 1
            if silent == attempts:
                break
            yield Sleep(self.retry_backoff(silent - 1))
        if span is not None:
            span.finish(self.sim.now, outcome="timeout", attempts=sent)
        if isinstance(last_error, (NetworkPartitionedError, RetryLaterError)):
            # A partition verdict is definitive (the fabric said "no
            # path") and a busy verdict means the peer is *alive* —
            # neither is a silence we timed out on; let callers tell
            # the three apart.
            raise last_error
        raise RpcTimeout(
            f"{service} on host {dst} unreachable after {sent} attempt(s): "
            f"{last_error}"
        )
