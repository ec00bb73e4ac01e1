"""Unit tests for the LAN model and RPC layer."""

from unittest import mock

import pytest

from repro.config import ClusterParams
from repro.net import (
    HostDownError, Lan, NetNode, Packet, Reply, RpcError, RpcPort, RpcTimeout,
)
from repro.net import rpc as rpc_module
from repro.sim import ChannelClosed, Cpu, Simulator, Sleep, spawn


def make_lan(sim, **overrides):
    params = ClusterParams().clone(**overrides)
    return Lan(sim, params=params)


def make_node(sim, lan, name):
    node = NetNode(sim, name)
    lan.register(node)
    return node


def test_send_delivers_packet_with_latency():
    sim = Simulator()
    lan = make_lan(sim, net_latency=0.001, net_bandwidth=1_000_000)
    a = make_node(sim, lan, "a")
    b = make_node(sim, lan, "b")

    def sender():
        yield from lan.send(Packet(a.address, b.address, "ping", "hi", size=1000))

    def receiver():
        packet = yield b.inbox.get()
        return (sim.now, packet.payload)

    spawn(sim, sender())
    task = spawn(sim, receiver())
    sim.run()
    arrival, payload = task.result
    assert payload == "hi"
    # 1000 bytes / 1e6 B/s + 1 ms latency = 2 ms.
    assert arrival == pytest.approx(0.002)


def test_send_to_down_host_raises():
    sim = Simulator()
    lan = make_lan(sim)
    a = make_node(sim, lan, "a")
    b = make_node(sim, lan, "b")
    b.up = False

    def sender():
        try:
            yield from lan.send(Packet(a.address, b.address, "ping", None, 100))
        except HostDownError:
            return "down"

    task = spawn(sim, sender())
    sim.run()
    assert task.result == "down"


def test_shared_medium_serializes_transfers():
    sim = Simulator()
    lan = make_lan(sim, net_latency=0.0, net_bandwidth=1_000_000)
    a = make_node(sim, lan, "a")
    b = make_node(sim, lan, "b")
    done = {}

    def mover(label):
        yield from lan.transfer(a.address, b.address, 1_000_000)
        done[label] = sim.now

    spawn(sim, mover("x"))
    spawn(sim, mover("y"))
    sim.run()
    assert done["x"] == pytest.approx(1.0)
    assert done["y"] == pytest.approx(2.0)


def test_unshared_medium_overlaps_transfers():
    sim = Simulator()
    lan = make_lan(sim, net_latency=0.0, net_bandwidth=1_000_000,
                   net_shared_medium=False)
    a = make_node(sim, lan, "a")
    b = make_node(sim, lan, "b")
    done = {}

    def mover(label):
        yield from lan.transfer(a.address, b.address, 1_000_000)
        done[label] = sim.now

    spawn(sim, mover("x"))
    spawn(sim, mover("y"))
    sim.run()
    assert done["x"] == pytest.approx(1.0)
    assert done["y"] == pytest.approx(1.0)


def test_broadcast_reaches_all_up_nodes_except_sender():
    sim = Simulator()
    lan = make_lan(sim)
    nodes = [make_node(sim, lan, f"n{i}") for i in range(4)]
    nodes[2].up = False

    def sender():
        yield from lan.broadcast(
            Packet(nodes[0].address, 0, "query", "who-is-idle", 100)
        )

    spawn(sim, sender())
    sim.run_until_idle()
    assert len(nodes[0].inbox) == 0
    assert len(nodes[1].inbox) == 1
    assert len(nodes[2].inbox) == 0  # down
    assert len(nodes[3].inbox) == 1


def test_lan_accounts_traffic():
    sim = Simulator()
    lan = make_lan(sim)
    a = make_node(sim, lan, "a")
    b = make_node(sim, lan, "b")

    def mover():
        yield from lan.transfer(a.address, b.address, 5000)

    spawn(sim, mover())
    sim.run()
    assert lan.bytes_sent == 5000
    assert lan.messages_sent == 1


class _Endpoints:
    """Two hosts with CPUs and RPC ports, for RPC tests."""

    def __init__(self, sim, **overrides):
        self.lan = make_lan(sim, **overrides)
        self.params = self.lan.params
        self.client_node = make_node(sim, self.lan, "client")
        self.server_node = make_node(sim, self.lan, "server")
        self.client_cpu = Cpu(sim, name="client-cpu")
        self.server_cpu = Cpu(sim, name="server-cpu")
        self.client = RpcPort(sim, self.lan, self.client_node, cpu=self.client_cpu)
        self.server = RpcPort(sim, self.lan, self.server_node, cpu=self.server_cpu)


def test_rpc_round_trip():
    sim = Simulator()
    endpoints = _Endpoints(sim)

    def echo(args):
        return args * 2
        yield  # pragma: no cover - makes this a generator

    endpoints.server.register("echo", echo)

    def caller():
        result = yield from endpoints.client.call(
            endpoints.server_node.address, "echo", 21
        )
        return (result, sim.now)

    task = spawn(sim, caller())
    sim.run_until_idle()
    result, elapsed = task.result
    assert result == 42
    # Null RPC should land in the low single-digit milliseconds.
    assert 0.001 < elapsed < 0.01


def test_rpc_handler_can_sleep_and_consume_cpu():
    sim = Simulator()
    endpoints = _Endpoints(sim)

    def slow(args):
        yield Sleep(0.5)
        yield from endpoints.server_cpu.consume(0.1)
        return "done"

    endpoints.server.register("slow", slow)

    def caller():
        result = yield from endpoints.client.call(
            endpoints.server_node.address, "slow", timeout=10.0
        )
        return (result, sim.now)

    task = spawn(sim, caller())
    sim.run_until_idle()
    result, elapsed = task.result
    assert result == "done"
    assert elapsed > 0.6


def test_rpc_unknown_service_raises_at_caller():
    sim = Simulator()
    endpoints = _Endpoints(sim)

    def caller():
        try:
            yield from endpoints.client.call(
                endpoints.server_node.address, "missing"
            )
        except Exception as err:  # noqa: BLE001
            return type(err).__name__

    task = spawn(sim, caller())
    sim.run_until_idle()
    assert task.result == "RpcError"


def test_rpc_remote_exception_propagates():
    sim = Simulator()
    endpoints = _Endpoints(sim)

    def bad(args):
        raise KeyError("nope")
        yield  # pragma: no cover

    endpoints.server.register("bad", bad)

    def caller():
        try:
            yield from endpoints.client.call(endpoints.server_node.address, "bad")
        except KeyError as err:
            return f"caught {err}"

    task = spawn(sim, caller())
    sim.run_until_idle()
    assert task.result == "caught 'nope'"


def test_rpc_to_down_host_times_out():
    sim = Simulator()
    endpoints = _Endpoints(sim, rpc_timeout=0.5, rpc_retries=1)
    endpoints.server_node.up = False

    def caller():
        try:
            yield from endpoints.client.call(endpoints.server_node.address, "echo")
        except RpcTimeout:
            return ("timeout", sim.now)

    task = spawn(sim, caller())
    sim.run_until_idle()
    assert task.result[0] == "timeout"


def test_rpc_reply_wrapper_controls_size():
    sim = Simulator()
    endpoints = _Endpoints(sim, net_latency=0.0, net_bandwidth=1000.0)

    def bulky(args):
        return Reply("data", size=1000)
        yield  # pragma: no cover

    endpoints.server.register("bulky", bulky)

    def caller():
        start = sim.now
        result = yield from endpoints.client.call(
            endpoints.server_node.address, "bulky", size=1, timeout=30.0
        )
        return (result, sim.now - start)

    task = spawn(sim, caller())
    sim.run_until_idle()
    result, elapsed = task.result
    assert result == "data"
    # 1000-byte reply at 1000 B/s dominates: ~1 s.
    assert elapsed > 0.9


def test_rpc_fallback_receives_non_rpc_packets():
    sim = Simulator()
    endpoints = _Endpoints(sim)
    seen = []
    endpoints.server.fallback = lambda packet: seen.append(packet.kind)

    def sender():
        yield from endpoints.lan.send(
            Packet(
                endpoints.client_node.address,
                endpoints.server_node.address,
                "idle-query",
                None,
                64,
            )
        )

    spawn(sim, sender())
    sim.run_until_idle()
    assert seen == ["idle-query"]


def test_rpc_server_counts_calls():
    sim = Simulator()
    endpoints = _Endpoints(sim)

    def noop(args):
        return None
        yield  # pragma: no cover

    endpoints.server.register("noop", noop)

    def caller():
        for _ in range(3):
            yield from endpoints.client.call(endpoints.server_node.address, "noop")

    spawn(sim, caller())
    sim.run_until_idle()
    assert endpoints.client.calls_made == 3
    assert endpoints.server.calls_served == 3


# ----------------------------------------------------------------------
# Exactly-once RPC under adversarial fabrics
# ----------------------------------------------------------------------
class _ScriptedRng:
    """Deterministic fabric RNG: ``random()`` pops scripted draws (then
    repeats the last one forever); ``uniform`` returns the low bound."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        if len(self.values) > 1:
            return self.values.pop(0)
        return self.values[0]

    def uniform(self, low, high):
        return low


def _adversarial_endpoints(sim, rng_values, **link):
    from repro.faults import LinkFabric

    endpoints = _Endpoints(sim)
    fabric = LinkFabric(rng=_ScriptedRng(rng_values))
    fabric.set_link(
        endpoints.client_node.address, endpoints.server_node.address, **link
    )
    endpoints.lan.fabric = fabric
    return endpoints


def test_rpc_exactly_once_under_duplicating_link():
    """A link that duplicates every request must not double-execute a
    non-idempotent handler: the dedup cache absorbs the copies."""
    sim = Simulator()
    endpoints = _adversarial_endpoints(sim, [0.0], duplicate=0.5)
    executed = []

    def bump(args):
        executed.append(args)
        return len(executed)
        yield  # pragma: no cover - makes this a generator

    endpoints.server.register("bump", bump)

    def caller():
        results = []
        for i in range(3):
            results.append((yield from endpoints.client.call(
                endpoints.server_node.address, "bump", i
            )))
        return results

    task = spawn(sim, caller())
    sim.run_until_idle()
    assert task.result == [1, 2, 3]
    assert executed == [0, 1, 2]                      # exactly once each
    assert endpoints.server.duplicates_suppressed == 3
    assert endpoints.server.double_executions == 0


def test_rpc_call_outlasting_its_timeout_survives_duplicating_link():
    """A call whose handler runs past the caller's timeout, over a link
    that duplicates most messages: probes and fabric copies alike are
    absorbed, the ack keeps the caller waiting, and the one execution's
    reply ends the call."""
    sim = Simulator()
    endpoints = _adversarial_endpoints(sim, [0.0], duplicate=0.9)
    endpoints.params.rpc_timeout = 0.5
    executed = []

    def echo(args):
        executed.append(args)
        yield Sleep(1.5)
        return args

    endpoints.server.register("echo", echo)

    def caller():
        return (yield from endpoints.client.call(
            endpoints.server_node.address, "echo", "payload"
        ))

    task = spawn(sim, caller())
    sim.run_until_idle()
    assert task.result == "payload"
    assert executed == ["payload"]
    assert endpoints.client.calls_made == 3           # the request, two probes
    assert endpoints.server.duplicates_suppressed >= 2
    assert endpoints.server.double_executions == 0


def _corrupting_endpoints(sim, rng_values):
    """Endpoints whose link corrupts and duplicates by scripted draws
    (per request: corrupt, duplicate, then the copy's corrupt)."""
    return _adversarial_endpoints(sim, rng_values, duplicate=0.5, corrupt=0.5)


def test_long_call_whose_request_and_copy_are_corrupted_runs_once():
    """A bulk call's request and the link's duplicate of it both fail
    the checksum, so the server never hears of the call; the probe at
    ``rpc_probe_interval`` carries the request, and it runs once."""
    sim = Simulator()
    endpoints = _corrupting_endpoints(sim, [0.0, 0.0, 0.0, 0.9])
    interval = endpoints.params.rpc_probe_interval
    executed = []

    def write(args):
        executed.append(args)
        return "written"
        yield  # pragma: no cover - makes this a generator

    endpoints.server.register("write", write)

    def caller():
        value = yield from endpoints.client.call(
            endpoints.server_node.address, "write", "block", size=8192,
            timeout=interval,
        )
        return value, sim.now

    task = spawn(sim, caller())
    sim.run_until_idle()
    value, finished = task.result
    assert value == "written"
    assert finished > interval
    assert endpoints.server.checksum_failures == 2
    assert executed == ["block"]
    assert endpoints.server.double_executions == 0


@pytest.mark.parametrize("runs", [1000.0, 1.5])
@pytest.mark.parametrize("reboots", [True, False])
def test_server_crash_mid_call_fails_the_call(reboots, runs):
    """The server crashes while it runs a call, which goes on running
    or finishes while the server is down, its reply unsent.  Rebooted,
    the server answers the probe with an error (what it ran or recorded
    died with the crash), not a replay; still down, it leaves the probes
    unanswered until the budget is spent.  Either way the call ends
    instead of waiting for ever."""
    sim = Simulator()
    endpoints = _Endpoints(sim)
    interval = endpoints.params.rpc_probe_interval

    def block(args):
        yield Sleep(runs)
        return "late"

    endpoints.server.register("block", block)

    def crash():
        yield Sleep(1.0)
        endpoints.server_node.up = False     # as Host.crash does
        endpoints.server_node.epoch += 1
        if reboots:
            yield Sleep(1.0)
            endpoints.server_node.up = True

    def caller():
        try:
            yield from endpoints.client.call(
                endpoints.server_node.address, "block", None, timeout=interval
            )
        except RpcTimeout as err:
            return "timeout", sim.now, str(err)
        except RpcError as err:
            return "error", sim.now, str(err)

    spawn(sim, crash())
    task = spawn(sim, caller())
    sim.run(until=500.0)
    assert task.done
    kind, when, why = task.result
    if reboots:
        assert kind == "error" and "rebooted" in why
        assert interval < when < 2 * interval
    else:
        assert kind == "timeout" and "is down" in why
        assert when < 2 * interval


def test_call_longer_than_its_budget_completes_against_a_live_server():
    """A handler that runs four probe intervals — longer than the
    ``rpc_retries + 1`` silent waits a call may spend — completes: each
    probe is acknowledged, which renews the budget, and only the first
    probe, sent before any ack, carries the bulk payload again."""
    sim = Simulator()
    endpoints = _Endpoints(sim)
    interval = endpoints.params.rpc_probe_interval
    size = 100_000
    executed = []

    def slow(args):
        executed.append(args)
        yield Sleep(4 * interval)
        return "done"

    endpoints.server.register("slow", slow)

    def caller():
        value = yield from endpoints.client.call(
            endpoints.server_node.address, "slow", "job", size=size,
            timeout=interval,
        )
        return value, sim.now

    task = spawn(sim, caller())
    sim.run_until_idle()
    value, finished = task.result
    assert value == "done"
    assert 4 * interval < finished < 5 * interval
    assert executed == ["job"]
    assert endpoints.server.double_executions == 0
    assert endpoints.client.calls_made == 4           # the request, three probes
    assert endpoints.server.duplicates_suppressed == 3
    assert endpoints.lan.bytes_sent < 3 * size


def test_an_ack_that_cannot_reach_its_caller_renews_nothing():
    """The caller's node goes down just before its first probe.  The
    server's ack cannot reach it, so it renews nothing, and the call
    times out while the handler still runs."""
    sim = Simulator()
    endpoints = _Endpoints(sim)
    interval = endpoints.params.rpc_probe_interval

    def block(args):
        yield Sleep(1000.0)
        return "late"

    endpoints.server.register("block", block)

    def cut():
        yield Sleep(interval - 1.0)
        endpoints.client_node.up = False

    def caller():
        try:
            yield from endpoints.client.call(
                endpoints.server_node.address, "block", None, timeout=interval
            )
        except RpcTimeout:
            return sim.now

    spawn(sim, cut())
    task = spawn(sim, caller())
    sim.run(until=500.0)
    assert task.done and task.result < 4 * interval
    assert endpoints.server.duplicates_suppressed == 2


def test_long_call_keeps_its_dedup_entry_past_the_cache_size():
    """A long call (a pipe read with no writer yet) outlives more
    requests to its server than the dedup cache holds.  Its entry is
    kept while it runs, so each probe is acked rather than run again:
    a second read would take data that nobody receives."""
    sim = Simulator()
    endpoints = _Endpoints(sim)
    interval = endpoints.params.rpc_probe_interval
    others = endpoints.params.rpc_dedup_cache + 64
    reads = []

    def read(args):
        reads.append(sim.now)
        yield Sleep(3 * interval)
        return "data"

    def note(args):
        return args
        yield  # pragma: no cover - makes this a generator

    endpoints.server.register("pipe.read", read)
    endpoints.server.register("note", note)

    def reader():
        return (yield from endpoints.client.call(
            endpoints.server_node.address, "pipe.read", None, timeout=interval
        ))

    def chatter():
        # All of them before the first probe.
        for i in range(others):
            yield Sleep(interval / (2 * others))
            yield from endpoints.client.call(
                endpoints.server_node.address, "note", i
            )

    task = spawn(sim, reader())
    spawn(sim, chatter())
    sim.run_until_idle()
    assert task.result == "data"
    assert len(reads) == 1
    assert endpoints.client.calls_made == 1 + others + 2
    assert endpoints.server.duplicates_suppressed == 2   # two acked probes
    assert endpoints.server.double_executions == 0


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("idempotent", [True, False])
def test_reply_slower_than_the_timeout_ends_the_call(shared, idempotent):
    """A reply that takes longer to cross the wire than the caller
    waits (a copy-on-reference fetch of a big image) ends the call.  A
    probe that overtakes it finds it on the wire and is acknowledged; one
    queued behind it arrives after it.  Either way the reply is shipped
    once."""
    sim = Simulator()
    endpoints = _Endpoints(sim, rpc_timeout=0.5, net_shared_medium=shared)
    size = 1_000_000                                  # 1.2 s on the wire
    executed = []

    def fetch(nbytes):
        executed.append(nbytes)
        return Reply(result=nbytes, size=nbytes)
        yield  # pragma: no cover - makes this a generator

    endpoints.server.register("fetch", fetch, idempotent=idempotent)

    def caller():
        return (yield from endpoints.client.call(
            endpoints.server_node.address, "fetch", size, reply_size=size
        ))

    task = spawn(sim, caller())
    sim.run_until_idle()
    assert task.result == size
    assert endpoints.client.calls_made >= 2           # it did probe
    assert endpoints.lan.bytes_sent < 2 * size
    if not shared or not idempotent:
        assert executed == [size]
    assert endpoints.server.double_executions == 0


def test_rpc_corrupted_request_dropped_then_retry_succeeds():
    """A corrupted request is checksum-dropped at the server; the
    client's timeout retry (same req_id) lands clean and succeeds."""
    sim = Simulator()
    # First draw corrupts the first request; every later draw is clean.
    endpoints = _adversarial_endpoints(sim, [0.0, 0.9], corrupt=0.5)
    endpoints.params.rpc_timeout = 0.5
    executed = []

    def once(args):
        executed.append(args)
        return "ok"
        yield  # pragma: no cover - makes this a generator

    endpoints.server.register("once", once)

    def caller():
        return (yield from endpoints.client.call(
            endpoints.server_node.address, "once", None
        ))

    task = spawn(sim, caller())
    sim.run_until_idle()
    assert task.result == "ok"
    assert endpoints.server.checksum_failures == 1
    assert len(executed) == 1
    assert endpoints.server.double_executions == 0


def test_rpc_retry_exhaustion_under_corrupting_link_times_out():
    """Every attempt corrupted => every attempt checksum-dropped =>
    the caller exhausts its retries and surfaces RpcTimeout."""
    sim = Simulator()
    endpoints = _adversarial_endpoints(sim, [0.0], corrupt=0.9)
    endpoints.params.rpc_timeout = 0.5

    def never(args):
        return "unreachable"
        yield  # pragma: no cover - makes this a generator

    endpoints.server.register("never", never)

    def caller():
        try:
            yield from endpoints.client.call(
                endpoints.server_node.address, "never", None
            )
        except RpcTimeout:
            return "timed-out"

    task = spawn(sim, caller())
    sim.run_until_idle()
    assert task.result == "timed-out"
    attempts = endpoints.params.rpc_retries + 1
    assert endpoints.server.checksum_failures == attempts
    assert endpoints.server.calls_served == 0


def test_rpc_retry_later_backs_off_and_reraises_after_exhaustion():
    """RetryLaterError is explicit backpressure: each retry re-attempts
    admission (the dedup cache forgets busy refusals), and exhaustion
    re-raises RetryLaterError — never RpcTimeout or HostDownError."""
    from repro.net import RetryLaterError

    sim = Simulator()
    endpoints = _Endpoints(sim)
    admissions = []

    def busy(args):
        admissions.append(sim.now)
        raise RetryLaterError("at capacity")
        yield  # pragma: no cover - makes this a generator

    endpoints.server.register("busy", busy)

    def caller():
        try:
            yield from endpoints.client.call(
                endpoints.server_node.address, "busy", None
            )
        except RetryLaterError:
            return "retry-later"

    task = spawn(sim, caller())
    sim.run_until_idle()
    assert task.result == "retry-later"
    # Every attempt reached the handler (no memoized "busy" replay) and
    # none of them counted as a double execution.
    assert len(admissions) == endpoints.params.rpc_retries + 1
    assert endpoints.server.double_executions == 0
    # The retries were spaced by backoff, not fired back-to-back.
    assert admissions == sorted(admissions)
    assert admissions[1] - admissions[0] >= endpoints.params.rpc_backoff_base


def test_bounded_inbox_overflow_is_counted_backpressure():
    """A full bounded inbox drops the packet and counts it — no
    exception; senders discover the loss by timeout."""
    sim = Simulator()
    lan = make_lan(sim, net_inbox_capacity=2)
    a = make_node(sim, lan, "a")
    b = make_node(sim, lan, "b")

    def sender():
        for i in range(5):
            yield from lan.send(
                Packet(a.address, b.address, "flood", i, size=100)
            )

    spawn(sim, sender())
    sim.run_until_idle()
    assert len(b.inbox) == 2
    assert lan.inbox_overflows == 3


def test_retry_backoff_survives_unbounded_attempt_counts():
    """A retry-forever loop hands ``retry_backoff`` ever larger attempt
    numbers; ``2.0 ** attempt`` overflows a float at 1024, so the
    exponent is clamped — the delay had reached the cap long before."""
    sim = Simulator()
    lan = make_lan(sim, rpc_backoff_jitter=0.0)
    port = RpcPort(sim, lan, make_node(sim, lan, "a"), params=lan.params)
    cap = lan.params.rpc_backoff_cap
    assert port.retry_backoff(0) == lan.params.rpc_backoff_base
    assert port.retry_backoff(5000) == cap
    assert port.retry_backoff(1023) == port.retry_backoff(1024) == cap


# ----------------------------------------------------------------------
# The receive waiter against the receive task it replaced
# ----------------------------------------------------------------------
class _TaskServedPort(RpcPort):
    """The reference: a port whose receive loop is a daemon task parked
    on the inbox, not a waiter."""

    def __init__(self, *args, **kwargs):
        with mock.patch.object(rpc_module, "_Receiver", lambda port: None):
            super().__init__(*args, **kwargs)
        spawn(self.sim, self._serve, name=f"rpc-server:{self.node.name}",
              daemon=True)

    def _serve(self):
        while True:
            try:
                packet = yield self.node.inbox.get()
            except ChannelClosed:
                return
            if packet.corrupt:
                self.checksum_failures += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        self.sim.now, f"rpc:{self.node.name}",
                        "checksum-drop", src=packet.src, msg=packet.kind,
                    )
                continue
            if (packet.kind == "rpc-request"
                    and isinstance(packet.payload, rpc_module._Request)):
                spawn(
                    self.sim,
                    self._handle(packet.payload),
                    name=f"rpc:{packet.payload.service}@{self.node.name}",
                    daemon=True,
                )
            elif self.fallback is not None:
                self.fallback(packet)


def _receive_outcome(port_cls, scenario):
    """Five clients call one server at the same instant, just after a
    stray packet for the port's fallback reaches it, so the requests
    wait in its inbox while the stray is dispatched.  Returns what an
    observer sees of the run."""
    from repro.faults import LinkFabric, trace_fingerprint
    from repro.obs.profile import EngineProfiler
    from repro.sim import Tracer

    sim = Simulator()
    profiler = EngineProfiler().install(sim)
    params = ClusterParams().clone(
        net_shared_medium=False, rpc_timeout=0.05,
        net_inbox_capacity=2 if scenario == "overflow" else 0,
    )
    lan = Lan(sim, params=params, tracer=Tracer(enabled=True))
    server_node = make_node(sim, lan, "server")
    # No CPU on the server port: a handler runs at its task's start,
    # where it notes the next sequence number, so a receive loop that
    # deferred anything in another order would show.
    server = port_cls(sim, lan, server_node)
    server_cpu = Cpu(sim, name="server-cpu")
    starts = []
    clients = []
    for i in range(5):
        node = make_node(sim, lan, f"client{i}")
        clients.append(port_cls(sim, lan, node, cpu=Cpu(sim, name=f"cpu{i}")))
    if scenario == "corrupt":
        fabric = LinkFabric(rng=_ScriptedRng([0.0, 0.9]))
        fabric.set_link(clients[2].node.address, server_node.address,
                        corrupt=0.5)
        lan.fabric = fabric
    seen = []

    def fallback(packet):
        seen.append((sim.now, packet.payload, len(server_node.inbox)))
        if scenario == "crash":
            # The host crashes with the five requests in its inbox: they
            # are lost with it, and it is back 0.2 s later.
            server_node.up = False
            while server_node.inbox.try_get()[0]:
                pass
            spawn(sim, reboot(), name="reboot")

    def reboot():
        yield Sleep(0.2)
        server_node.up = True

    server.fallback = fallback

    def echo(args):
        starts.append((args, sim.now, repr(sim._seq)))
        yield from server_cpu.consume(0.001)
        return ("echo", args, sim.now)

    server.register("echo", echo)

    def stray():
        # Charged like a call, so it is on the wire with the requests,
        # and ahead of them.
        yield from Cpu(sim, name="stray-cpu").consume(params.rpc_cpu_overhead)
        yield from lan.send(Packet(clients[0].node.address,
                                   server_node.address, "stray", "hi", 256))

    def caller(port, i):
        try:
            return (yield from port.call(server_node.address, "echo", i))
        except RpcTimeout as err:
            return ("timeout", str(err))

    spawn(sim, stray())
    tasks = [spawn(sim, caller(port, i)) for i, port in enumerate(clients)]
    sim.run_until_idle()
    if scenario == "closed":
        # The receiver is parked on an empty inbox when it closes.
        server_node.inbox.close()
        sim.run_until_idle()
    return {
        "trace": trace_fingerprint(lan.tracer),
        "replies": [task.result for task in tasks],
        "fallback": seen,
        "starts": starts,
        "events": sim.events_fired,
        "sources": profiler.by_source,
        "served": server.calls_served,
        "checksum": server.checksum_failures,
        "overflows": lan.inbox_overflows,
        "now": sim.now,
    }


@pytest.mark.parametrize("scenario", ["burst", "corrupt", "overflow",
                                      "crash", "closed"])
def test_receive_waiter_is_exact_against_the_receive_task(scenario):
    """A port's receive loop parked on its inbox makes the task's
    ``defer`` calls in the task's order: the same trace, replies,
    fallback calls, event count and per-source event counts as the
    task it replaced."""
    waiter = _receive_outcome(RpcPort, scenario)
    task = _receive_outcome(_TaskServedPort, scenario)
    assert waiter == task
    # Each scenario did what it says.
    (_t, _payload, buffered), = waiter["fallback"]
    assert buffered == (2 if scenario == "overflow" else 5)
    assert waiter["served"] == 5
    assert waiter["checksum"] == (scenario == "corrupt")
    assert waiter["overflows"] == (3 if scenario == "overflow" else 0)
    late = [reply[2] > 0.05 for reply in waiter["replies"]]
    assert late == {"corrupt": [False, False, True, False, False],
                    "overflow": [False, False, True, True, True],
                    "crash": [True] * 5}.get(scenario, [False] * 5)
