"""A grant is not an event — and nothing a simulation computes can tell.

``Resource.hold``, ``Cpu.consume`` and the ``Lan`` used to admit a
holder by a deferred resume (the grant was an event of its own), after
which the holder slept and released the unit itself.  Now the unit is
taken at the instant it is free or handed over and one timed event ends
the hold.  The old discipline is kept here, and only here, as the
reference; seeded random scenarios run under both and every completion
instant, the completion order and every accounted float must be
**equal** (``==``), only the number of events may differ, downwards.

Ties.  A hold's wake-up now takes its sequence number at the grant, so
against a *non-hold* timer due at the bit-identical float it sorts first
where the reference sorted it second.  Scenarios keep plain sleeps on
phases of their own (no hold ends on one); holds collide with holds as
much as the generator can make them.

The second half pins the part a cancelled holder plays: interrupted or
aborted while queued, holding or mid-wire, it gives back exactly what it
had not used, at that instant.
"""

import random
from collections import deque

import pytest

from repro.config import ClusterParams
from repro.net import HostDownError, Lan, NetNode, Packet
from repro.sim import (
    Cpu, Effect, Interrupted, Resource, Simulator, Sleep, SliceRun, spawn,
)
from repro.sim.resources import _Core

SEEDS = range(40)
#: Hold lengths that collide: sums of a few of them meet again and again.
LENGTHS = [0.25, 0.5, 0.5, 0.75, 1.0, 1.5, 0.0]
#: Sleep phases no sum of LENGTHS ever lands on.
PHASES = [0.0137, 0.0291, 0.0618, 0.1013]


# ----------------------------------------------------------------------
# The reference: a grant is an event, the holder sleeps and releases
# ----------------------------------------------------------------------
class _RefAcquire(Effect):
    def __init__(self, resource):
        self.resource = resource

    def bind(self, waiter):
        res = self.resource
        if res.in_use < res.capacity and not res._queue:
            res._account()
            res.in_use += 1
            waiter.sim.defer(waiter._resume, None)
        else:
            res._queue.append(waiter)

    def cancel(self, waiter):
        try:
            self.resource._queue.remove(waiter)
        except ValueError:
            pass


class RefResource:
    """``Resource`` as it was: ``acquire`` / ``release`` and the
    generator ``hold`` on top of them."""

    def __init__(self, sim, capacity=1):
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._queue = deque()
        self.busy_time = 0.0
        self._last_change = 0.0

    def acquire(self):
        return _RefAcquire(self)

    def release(self):
        self._account()
        if self._queue:
            self.sim.defer(self._queue.popleft()._resume, None)
        else:
            self.in_use -= 1

    def hold(self, duration):
        yield self.acquire()
        try:
            yield Sleep(duration)
        finally:
            self.release()

    def _account(self):
        now = self.sim.now
        self.busy_time += self.in_use * (now - self._last_change)
        self._last_change = now


class _RefCore(_Core):
    """The real rotation under the old admission.  ``hold(0.0)`` stands
    for ``acquire()``: the zero-length wake-up the core arms when the
    unit becomes the waiter's *is* the old deferred resume (same queue,
    same sequence number), and here it resumes the task without giving
    the core back — the task sleeps and releases by itself."""

    def _expire(self, hold):
        hold._handle = None
        hold._waiter._resume(None)


def ref_consume(cpu, demand):
    """``Cpu.consume`` as it was."""
    cpu.sync()
    cpu.total_demand += demand
    remaining = demand / cpu.speed
    cpu.runnable += 1
    try:
        while remaining > 1e-12:
            slice_len = min(cpu.quantum, remaining)
            yield cpu.core.hold(0.0)
            try:
                yield Sleep(slice_len)
            finally:
                cpu.core.release()
            remaining -= slice_len
    finally:
        cpu.runnable -= 1


def ref_core_hold(cpu, duration):
    yield cpu.core.hold(0.0)
    try:
        yield Sleep(duration)
    finally:
        cpu.core.release()


# ----------------------------------------------------------------------
# Plain resource
# ----------------------------------------------------------------------
def _resource_plan(rng):
    """``[(offset phase, [(hold length, gap phase or None), ...])]``"""
    tasks = []
    for _ in range(rng.randint(2, 8)):
        steps = [
            (rng.choice(LENGTHS), rng.choice([None, None, rng.choice(PHASES)]))
            for _ in range(rng.randint(1, 4))
        ]
        # Few distinct offsets: several tasks ask in the same instant.
        tasks.append((rng.choice([0.0, 0.0, PHASES[0], PHASES[1]]), steps))
    return rng.choice([1, 1, 2, 3]), tasks


def _run_resource(plan, reference):
    capacity, tasks = plan
    sim = Simulator()
    res = (RefResource if reference else Resource)(sim, capacity=capacity)
    log = []

    def job(index, offset, steps):
        if offset:
            yield Sleep(offset)
        for position, (length, gap) in enumerate(steps):
            if reference:
                yield from res.hold(length)
            else:
                yield res.hold(length)
            log.append((index, position, sim.now))
            if gap is not None:
                yield Sleep(gap)

    for index, (offset, steps) in enumerate(tasks):
        spawn(sim, job(index, offset, steps))
    sim.run(until=1.0)
    mid = (res.busy_time, res.in_use, len(res._queue))
    sim.run()
    return (log, mid, res.busy_time, sim.now), sim.events_fired


@pytest.mark.parametrize("seed", SEEDS)
def test_resource_holds_match_the_reference(seed):
    plan = _resource_plan(random.Random(seed))
    expected, reference_events = _run_resource(plan, reference=True)
    actual, events = _run_resource(plan, reference=False)
    assert actual == expected
    holds = sum(len(steps) for _offset, steps in plan[1])
    assert reference_events - events == holds  # the grant, each time


# ----------------------------------------------------------------------
# A core shared by slice runs, Cpu.consume and plain holds
# ----------------------------------------------------------------------
QUANTUM = 0.01
#: CPU demands: under, at and over a quantum, colliding with each other.
DEMANDS = [0.001, 0.004, 0.004, 0.01, 0.015, 0.02, 0.033, 0.0005]


class _Ledger:
    def __init__(self):
        self.cpu_time = 0.0


def _core_plan(rng):
    tasks = []
    for _ in range(rng.randint(2, 8)):
        kind = rng.choice(["consume", "consume", "hold", "compute"])
        steps = [
            (rng.choice(DEMANDS) * (6 if kind == "compute" else 1),
             rng.choice([None, PHASES[2] * QUANTUM, PHASES[3] * QUANTUM]))
            for _ in range(rng.randint(1, 5))
        ]
        offset = rng.choice([0.0, 0.0, PHASES[0] * QUANTUM, 0.37 * QUANTUM])
        tasks.append((kind, offset, steps))
    return rng.choice([1.0, 1.0, 0.5, 1.25]), tasks


def _run_core(plan, reference):
    speed, tasks = plan
    sim = Simulator()
    cpu = Cpu(sim, quantum=QUANTUM, speed=speed)
    if reference:
        cpu.core = _RefCore(cpu, cpu.name)
    ledgers = [_Ledger() for _ in tasks]
    log = []

    def job(index, kind, offset, steps):
        if offset:
            yield Sleep(offset)
        for position, (amount, gap) in enumerate(steps):
            if kind == "compute":
                run = SliceRun(amount, ledgers[index])
                run.cpu = cpu
                cpu.runnable += 1
                while run.remaining > 1e-9:
                    yield run
                cpu.runnable -= 1
            elif kind == "consume":
                if reference:
                    yield from ref_consume(cpu, amount)
                else:
                    yield from cpu.consume(amount)
            elif reference:
                yield from ref_core_hold(cpu, amount)
            else:
                yield cpu.core.hold(amount)
            log.append((index, position, sim.now))
            if gap is not None:
                yield Sleep(gap)

    for index, (kind, offset, steps) in enumerate(tasks):
        spawn(sim, job(index, kind, offset, steps))
    sim.run(until=2.5 * QUANTUM)
    cpu.sync()
    mid = (cpu.core.busy_time, cpu.total_demand, cpu.runnable,
           [ledger.cpu_time for ledger in ledgers])
    sim.run()
    return (log, mid, cpu.core.busy_time, cpu.total_demand, cpu.utilization(),
            [ledger.cpu_time for ledger in ledgers], sim.now), sim.events_fired


@pytest.mark.parametrize("seed", SEEDS)
def test_core_holds_match_the_reference(seed):
    plan = _core_plan(random.Random(1000 + seed))
    expected, reference_events = _run_core(plan, reference=True)
    actual, events = _run_core(plan, reference=False)
    assert actual == expected
    assert events < reference_events


# ----------------------------------------------------------------------
# The LAN: one timed wait per message against hold-then-sleep
# ----------------------------------------------------------------------
SIZES = [64, 256, 256, 1024, 4096, 16384, 65536, 0]


def _lan_plan(rng):
    tasks = []
    for _ in range(rng.randint(2, 8)):
        steps = [
            (rng.choice(["send", "transfer", "transfer", "broadcast"]),
             rng.choice(SIZES), rng.choice([None, None, rng.choice(PHASES) / 64]))
            for _ in range(rng.randint(1, 5))
        ]
        tasks.append((rng.choice([0.0, 0.0, PHASES[0] / 64]), steps))
    return rng.random() < 0.8, tasks


def _run_lan(plan, reference):
    shared, tasks = plan
    sim = Simulator()
    params = ClusterParams(net_shared_medium=shared)
    lan = Lan(sim, params)
    nodes = [NetNode(sim, f"n{i}") for i in range(len(tasks) + 1)]
    for node in nodes:
        lan.register(node)
    medium = RefResource(sim)
    log = []

    def carry(kind, src, dst, size):
        if reference:
            # What send / transfer / broadcast did on the wire.
            if kind == "transfer" and size <= 0:
                return
            duration = size / params.net_bandwidth
            if shared:
                yield from medium.hold(duration)
            else:
                yield Sleep(duration)
            yield Sleep(params.net_latency)
        elif kind == "send":
            yield from lan.send(Packet(src, dst, "data", None, size))
        elif kind == "transfer":
            yield from lan.transfer(src, dst, size)
        else:
            yield from lan.broadcast(Packet(src, dst, "data", None, size))

    def job(index, offset, steps):
        if offset:
            yield Sleep(offset)
        src = nodes[index].address
        dst = nodes[index + 1].address
        for position, (kind, size, gap) in enumerate(steps):
            yield from carry(kind, src, dst, size)
            log.append((index, position, sim.now))
            if gap is not None:
                yield Sleep(gap)

    for index, (offset, steps) in enumerate(tasks):
        spawn(sim, job(index, offset, steps))
    sim.run(until=0.004)
    readings = [_utilization(lan, medium, sim, reference)]
    sim.run()
    readings.append(_utilization(lan, medium, sim, reference))
    return (log, readings, sim.now), sim.events_fired


def _utilization(lan, medium, sim, reference):
    if not reference:
        return lan.utilization()
    now = sim.now
    busy = medium.busy_time + medium.in_use * (now - medium._last_change)
    return busy / now if now > 0 else 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_lan_messages_match_the_reference(seed):
    plan = _lan_plan(random.Random(2000 + seed))
    expected, reference_events = _run_lan(plan, reference=True)
    actual, events = _run_lan(plan, reference=False)
    assert actual == expected
    assert events < reference_events


# ----------------------------------------------------------------------
# Cancellation gives the unit back, on every path
# ----------------------------------------------------------------------
def _cancel(task, how):
    if how == "interrupt":
        task.interrupt("cancelled")
    else:
        task.abort("cancelled")


@pytest.mark.parametrize("how", ["interrupt", "abort"])
def test_cancelled_queued_hold_leaves_the_queue(how):
    sim = Simulator()
    res = Resource(sim)
    done = []

    def job(label, duration):
        yield res.hold(duration)
        done.append((label, sim.now))

    spawn(sim, job("a", 1.0))
    victim = spawn(sim, job("b", 5.0))
    spawn(sim, job("c", 1.0))
    sim.schedule(0.5, _cancel, victim, how)
    sim.run()
    assert done == [("a", 1.0), ("c", 2.0)]  # c moved up; b never held
    assert (res.in_use, res.queue_length, res.busy_time) == (0, 0, 2.0)
    assert sim.pending_events == 0


@pytest.mark.parametrize("how", ["interrupt", "abort"])
def test_cancelled_holder_gives_the_unit_back_at_that_instant(how):
    sim = Simulator()
    res = Resource(sim)
    done = []

    def job(label, duration):
        yield res.hold(duration)
        done.append((label, sim.now))

    victim = spawn(sim, job("a", 5.0))
    spawn(sim, job("b", 1.0))
    sim.schedule(0.5, _cancel, victim, how)
    sim.run(until=0.5)
    assert res.in_use == 1 and res.queue_length == 0  # b's, as of 0.5
    sim.run()
    assert done == [("b", 1.5)]
    assert (res.in_use, res.busy_time) == (0, 1.5)  # 0.5 of a, 1.0 of b
    assert sim.pending_events == 0  # a's wake-up at 5.0 was disarmed


@pytest.mark.parametrize("how", ["interrupt", "abort"])
def test_cancelled_consume_gives_the_core_back(how):
    """Holding, and queued behind a foreign hold."""
    sim = Simulator()
    cpu = Cpu(sim, quantum=QUANTUM)
    done = []

    def job(label, demand):
        yield from cpu.consume(demand)
        done.append((label, sim.now))

    holder = spawn(sim, job("a", 0.008))
    queued = spawn(sim, job("b", 0.008))
    spawn(sim, job("c", 0.004))
    sim.schedule(0.002, _cancel, queued, how)
    sim.schedule(0.003, _cancel, holder, how)
    sim.run()
    assert done == [("c", 0.003 + 0.004)]
    assert cpu.core.in_use == 0 and cpu.core.queue_length == 0
    assert cpu.core.busy_time == 0.003 + ((0.003 + 0.004) - 0.003)
    assert cpu.runnable == 0 and sim.pending_events == 0


@pytest.mark.parametrize("how", ["interrupt", "abort"])
def test_cancelled_consume_queued_behind_a_slice_run(how):
    """The rotation is settled before the queue is edited: the run keeps
    the quantum it is in and goes on alone, to the float, as if nobody
    had asked."""

    def scenario(disturbed):
        sim = Simulator()
        cpu = Cpu(sim, quantum=QUANTUM)
        ledger = _Ledger()
        done = []

        def compute():
            run = SliceRun(0.05, ledger)
            run.cpu = cpu
            while run.remaining > 1e-9:
                yield run
            done.append(("run", sim.now))

        def job():
            yield Sleep(0.0137)
            yield from cpu.consume(0.004)
            done.append(("consume", sim.now))

        spawn(sim, compute())
        if disturbed:
            victim = spawn(sim, job())
            sim.schedule(0.0171, _cancel, victim, how)  # queued since 0.0137
        sim.run()
        assert cpu.core.in_use == 0 and cpu.core.queue_length == 0
        assert sim.pending_events == 0
        return done, ledger.cpu_time, cpu.core.busy_time

    alone = scenario(disturbed=False)
    assert [label for label, _when in alone[0]] == ["run"]
    assert scenario(disturbed=True) == alone


def _three_node_lan():
    sim = Simulator()
    params = ClusterParams()
    lan = Lan(sim, params)
    nodes = [NetNode(sim, name) for name in ("a", "b", "c")]
    for node in nodes:
        lan.register(node)
    return sim, params, lan, [node.address for node in nodes]


@pytest.mark.parametrize("how", ["interrupt", "abort"])
def test_cancelled_sender_gives_its_unused_wire_time_back(how):
    """A sends 1 s of wire, B asks at 0.1, C at 0.2; A's host crashes at
    0.5.  B's transfer starts at 0.5, not 1.0, C's right behind it, and
    the medium counts 0.5 s for A."""
    sim, params, lan, (a, b, c) = _three_node_lan()
    second = int(params.net_bandwidth)  # bytes in one second of wire
    done = []

    def sender(label, offset, src, dst, nbytes):
        yield Sleep(offset)
        yield from lan.transfer(src, dst, nbytes)
        done.append((label, sim.now))

    victim = spawn(sim, sender("a", 0.0, a, b, second))
    spawn(sim, sender("b", 0.1, b, c, second // 4))
    spawn(sim, sender("c", 0.2, c, b, second // 2))
    sim.schedule(0.5, _cancel, victim, how)
    sim.run(until=0.5)
    assert lan.utilization() == 1.0
    sim.run()
    quarter = (second // 4) / params.net_bandwidth
    half = (second // 2) / params.net_bandwidth
    assert done == [
        ("b", (0.5 + quarter) + params.net_latency),
        ("c", ((0.5 + quarter) + half) + params.net_latency),
    ]
    busy = 0.5 + ((0.5 + quarter) - 0.5) + (((0.5 + quarter) + half)
                                            - (0.5 + quarter))
    assert lan.utilization() == busy / sim.now
    assert lan.messages_sent == 2 and sim.pending_events == 0


@pytest.mark.parametrize("how", ["interrupt", "abort"])
def test_cancelled_queued_sender_lets_the_ones_behind_move_up(how):
    sim, params, lan, (a, b, c) = _three_node_lan()
    second = int(params.net_bandwidth)
    done = []

    def sender(label, offset, src, dst, nbytes):
        yield Sleep(offset)
        yield from lan.transfer(src, dst, nbytes)
        done.append((label, sim.now))

    spawn(sim, sender("a", 0.0, a, b, second))
    victim = spawn(sim, sender("b", 0.1, b, c, second))  # due 1.0 .. 2.0
    spawn(sim, sender("c", 0.2, c, b, second // 2))      # due 2.0 .. 2.5
    sim.schedule(0.5, _cancel, victim, how)
    sim.run()
    first = second / params.net_bandwidth
    half = (second // 2) / params.net_bandwidth
    assert done == [
        ("a", first + params.net_latency),
        ("c", (first + half) + params.net_latency),  # 1.0 .. 1.5 now
    ]
    assert lan.utilization() == (first + ((first + half) - first)) / sim.now
    assert sim.pending_events == 0


def test_sender_cancelled_in_flight_has_used_its_wire_time():
    """Past the end of its wire time a message owes the medium nothing:
    the next sender started when that wire time ended, not earlier."""
    sim, params, lan, (a, b, c) = _three_node_lan()
    nbytes = 4096
    wire = nbytes / params.net_bandwidth
    done = []

    def sender(label, src, dst):
        yield from lan.transfer(src, dst, nbytes)
        done.append((label, sim.now))

    victim = spawn(sim, sender("a", a, b))
    spawn(sim, sender("b", b, c))
    sim.schedule(wire + params.net_latency / 2, victim.interrupt)
    sim.run()
    assert done == [("b", (wire + wire) + params.net_latency)]
    assert lan.utilization() == (wire + ((wire + wire) - wire)) / sim.now


def test_cancelled_sender_on_an_unshared_medium_just_stops():
    sim = Simulator()
    lan = Lan(sim, ClusterParams(net_shared_medium=False))
    nodes = [NetNode(sim, name) for name in ("a", "b")]
    for node in nodes:
        lan.register(node)

    def sender():
        try:
            yield from lan.transfer(nodes[0].address, nodes[1].address, 1 << 20)
        except Interrupted:
            return "stopped"

    task = spawn(sim, sender())
    sim.schedule(0.1, task.interrupt)
    sim.run()
    assert task.result == "stopped" and sim.now == 0.1
    assert lan.utilization() == 0.0 and sim.pending_events == 0


def test_down_destination_still_raises_after_the_one_wait():
    sim, params, lan, (a, b, _c) = _three_node_lan()
    lan.nodes[b].up = False

    def sender():
        try:
            yield from lan.send(Packet(a, b, "data", None, 256))
        except HostDownError:
            return sim.now

    task = spawn(sim, sender())
    sim.run()
    assert task.result == 256 / params.net_bandwidth + params.net_latency
