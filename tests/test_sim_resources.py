"""Unit tests for resources and the round-robin CPU model."""

import pytest

from repro.sim import Cpu, Interrupted, Resource, Simulator, Sleep, spawn


def test_resource_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def holder(label, duration):
        yield res.acquire()
        start = sim.now
        try:
            yield Sleep(duration)
        finally:
            res.release()
        spans.append((label, start, sim.now))

    spawn(sim, holder("a", 2.0))
    spawn(sim, holder("b", 3.0))
    sim.run()
    assert spans == [("a", 0.0, 2.0), ("b", 2.0, 5.0)]


def test_resource_capacity_two_allows_overlap():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def holder(label):
        yield from res.hold(2.0)
        done.append((label, sim.now))

    for label in "abc":
        spawn(sim, holder(label))
    sim.run()
    assert done == [("a", 2.0), ("b", 2.0), ("c", 4.0)]


def test_release_when_free_is_an_error():
    # ValueError, not RuntimeError: release() is reachable from RPC
    # handlers, and exception-flow only lets the programmer-error
    # builtins escape the hierarchy entry points (regression for the
    # live-tree fix that rule surfaced).
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(ValueError):
        res.release()


def test_acquire_cancelled_by_interrupt_leaves_queue_clean():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def hog():
        yield from res.hold(10.0)

    def impatient():
        try:
            yield res.acquire()
        except Interrupted:
            return "gave-up"

    spawn(sim, hog())
    waiter = spawn(sim, impatient())
    sim.schedule(1.0, waiter.interrupt)
    sim.run()
    assert waiter.result == "gave-up"
    assert res.queue_length == 0


def test_interrupt_between_grant_and_resume_leaves_no_stale_wakeup():
    """An interrupt that lands after a resource was granted to a waiter
    but before the waiter resumed is thrown *after* the waiter armed its
    next wait; that wait must be disarmed, not left to fire into
    whatever the task waits for later."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def holder():
        yield res.acquire()
        yield Sleep(1.0)
        res.release()               # grants the waiter: resume deferred
        waiter.interrupt("poke")    # ... and this lands in between

    def waiting():
        try:
            yield res.acquire()
            try:
                yield Sleep(5.0)    # armed by the grant, then interrupted
            finally:
                res.release()
        except Interrupted as intr:
            log.append(("interrupted", sim.now, intr.cause))
        yield Sleep(10.0)           # must last its full ten seconds
        log.append(("woke", sim.now))

    spawn(sim, holder())
    waiter = spawn(sim, waiting())
    sim.run()
    assert log == [("interrupted", 1.0, "poke"), ("woke", 11.0)]
    assert res.in_use == 0 and sim.pending_events == 0


def test_utilization_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        yield from res.hold(5.0)
        yield Sleep(5.0)

    spawn(sim, holder())
    sim.run()
    assert res.utilization() == pytest.approx(0.5)


def test_cpu_single_consumer_takes_demand_seconds():
    sim = Simulator()
    cpu = Cpu(sim, quantum=0.01)

    def job():
        yield from cpu.consume(1.0)
        return sim.now

    task = spawn(sim, job())
    sim.run()
    assert task.result == pytest.approx(1.0)


def test_cpu_two_consumers_share_fairly():
    sim = Simulator()
    cpu = Cpu(sim, quantum=0.01)
    finish = {}

    def job(label, demand):
        yield from cpu.consume(demand)
        finish[label] = sim.now

    spawn(sim, job("a", 1.0))
    spawn(sim, job("b", 1.0))
    sim.run()
    # Each needs 1s of a shared core: both finish near 2s.
    assert finish["a"] == pytest.approx(2.0, abs=0.05)
    assert finish["b"] == pytest.approx(2.0, abs=0.05)


def test_cpu_speed_scales_time():
    sim = Simulator()
    cpu = Cpu(sim, quantum=0.01, speed=2.0)

    def job():
        yield from cpu.consume(1.0)
        return sim.now

    task = spawn(sim, job())
    sim.run()
    assert task.result == pytest.approx(0.5)


def test_cpu_short_job_not_starved_by_long_job():
    sim = Simulator()
    cpu = Cpu(sim, quantum=0.01)
    finish = {}

    def job(label, demand):
        yield from cpu.consume(demand)
        finish[label] = sim.now

    spawn(sim, job("long", 10.0))
    spawn(sim, job("short", 0.1))
    sim.run()
    # With round-robin sharing the short job finishes near 0.2s, not
    # after the long job.
    assert finish["short"] < 0.5
    assert finish["long"] == pytest.approx(10.1, abs=0.1)


def test_cpu_runnable_counter():
    sim = Simulator()
    cpu = Cpu(sim, quantum=0.01)
    samples = []

    def job():
        yield from cpu.consume(1.0)

    def sampler():
        yield Sleep(0.5)
        samples.append(cpu.runnable)
        yield Sleep(2.0)
        samples.append(cpu.runnable)

    spawn(sim, job())
    spawn(sim, job())
    spawn(sim, sampler())
    sim.run()
    assert samples[0] == 2
    assert samples[1] == 0


def test_cpu_interrupt_releases_core():
    sim = Simulator()
    cpu = Cpu(sim, quantum=0.01)

    def victim():
        yield from cpu.consume(100.0)

    def successor():
        yield Sleep(1.0)
        yield from cpu.consume(1.0)
        return sim.now

    victim_task = spawn(sim, victim())
    succ = spawn(sim, successor())
    sim.schedule(1.0, victim_task.interrupt)
    sim.run()
    assert succ.result == pytest.approx(2.0, abs=0.05)
    assert cpu.runnable == 0


def test_cpu_rejects_negative_demand():
    sim = Simulator()
    cpu = Cpu(sim)

    def job():
        yield from cpu.consume(-1.0)

    spawn(sim, job(), name="bad")
    with pytest.raises(ValueError):
        sim.run()
