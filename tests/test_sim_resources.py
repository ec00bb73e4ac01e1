"""Unit tests for resources and the round-robin CPU model."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import (
    Cpu, Interrupted, Resource, Simulator, Sleep, SliceRun, spawn,
)
from repro.sim.resources import _repeat_add

from .test_lazy_slicing import QUANTUM, SPEEDS


def test_resource_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    done = []

    def holder(label, duration):
        yield res.hold(duration)
        done.append((label, sim.now))

    spawn(sim, holder("a", 2.0))
    spawn(sim, holder("b", 3.0))
    spawn(sim, holder("c", 0.5))
    sim.run(until=1.0)
    assert (res.in_use, res.queue_length) == (1, 2)
    sim.run()
    assert done == [("a", 2.0), ("b", 5.0), ("c", 5.5)]  # FIFO, one at a time


def test_resource_capacity_two_allows_overlap():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def holder(label):
        yield res.hold(2.0)
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
        yield res.hold(10.0)

    def impatient():
        try:
            yield res.hold(1.0)
        except Interrupted:
            return "gave-up"

    spawn(sim, hog())
    waiter = spawn(sim, impatient())
    sim.schedule(1.0, waiter.interrupt)
    sim.run()
    assert waiter.result == "gave-up"
    assert res.queue_length == 0
    assert sim.now == 10.0 and res.busy_time == 10.0  # it never held


def test_interrupt_between_grant_and_resume_leaves_no_stale_wakeup():
    """An interrupt that lands in the very instant a unit was handed to
    a queued hold takes the unit back at once and disarms the hold's
    wake-up; nothing is left to fire into whatever the task waits for
    later."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def holder():
        yield res.hold(1.0)         # its end hands the unit to the waiter
        assert res.in_use == 1 and res.queue_length == 0
        waiter.interrupt("poke")    # ... and this lands in the same instant
        assert res.in_use == 0      # given back at interrupt(), not later

    def waiting():
        try:
            yield res.hold(5.0)     # armed by the grant, then interrupted
        except Interrupted as intr:
            log.append(("interrupted", sim.now, intr.cause))
        yield Sleep(10.0)           # must last its full ten seconds
        log.append(("woke", sim.now))

    spawn(sim, holder())
    waiter = spawn(sim, waiting())
    sim.run()
    assert log == [("interrupted", 1.0, "poke"), ("woke", 11.0)]
    assert res.in_use == 0 and sim.pending_events == 0
    assert res.busy_time == 1.0


def test_negative_hold_is_an_error():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim).hold(-1.0)
    with pytest.raises(ValueError):
        Cpu(sim).core.hold(-1.0)


def test_utilization_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        yield res.hold(5.0)
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


# ----------------------------------------------------------------------
# Repeated addition in closed form
# ----------------------------------------------------------------------
#: Where a core's floats start a jump: nothing yet, a binade edge, the
#: binade [1/64, 1/32) in which 0.01 is an odd multiple of half an ulp,
#: and anything up to twelve days of seconds.
STARTS = st.one_of(
    st.just(0.0),
    st.integers(-12, 20).map(lambda e: 2.0 ** e),
    st.floats(1 / 64, 1 / 32, exclude_max=True),
    st.floats(0.0, 1e6),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    x=STARTS,
    c=st.builds(lambda speed, sign: sign * QUANTUM * speed,
                SPEEDS, st.sampled_from([1.0, -1.0])),
    n=st.integers(0, 10 ** 5),
    tally=st.none() | STARTS,
)
# Three steps down to exactly 1.0, where the fourth sum, 0.48 ulp below
# it, rounds on the finer grid of the binade underneath.
@example(x=1.0 + 3 * (1.5 - (1.5 - 0.005)), c=-0.005, n=4, tally=None)
def test_repeat_add_is_the_sequential_loop_bit_for_bit(x, c, n, tally):
    """``_repeat_add`` returns exactly what ``n`` additions one by one
    return — also across binade edges, through zero and in the tie
    binade — and its tally what adding each step's increment returns."""
    y, total = x, tally
    for _ in range(n):
        nxt = y + c
        if total is not None:
            total += nxt - y
        y = nxt
    expected = y if tally is None else (y, total)
    assert _repeat_add(x, c, n, tally) == expected


# ----------------------------------------------------------------------
# Slice runs: the round-robin rotation is replayed, not dispatched
# ----------------------------------------------------------------------
class _Ledger:
    def __init__(self):
        self.cpu_time = 0.0


def _round_robin(starts, demands, quantum, speed):
    """Finish time and CPU time of each consumer under per-quantum
    round-robin, by the recurrence itself: the holder burns
    ``min(quantum, remaining / speed)`` and goes to the tail.  All
    ``starts`` are distinct and fall strictly inside a quantum."""
    arrivals = sorted(range(len(starts)), key=lambda i: starts[i])
    remaining = list(demands)
    charged = [0.0] * len(demands)
    finished = [None] * len(demands)
    queue = []
    holder = None
    t = 0.0
    while holder is not None or arrivals:
        if holder is None:
            holder = arrivals.pop(0)
            t = starts[holder]
        end = t + min(quantum, remaining[holder] / speed)
        while arrivals and starts[arrivals[0]] < end:
            queue.append(arrivals.pop(0))
        consumed = min(quantum, remaining[holder] / speed) * speed
        remaining[holder] -= consumed
        charged[holder] += consumed
        t = end
        if remaining[holder] > 1e-9:
            queue.append(holder)
        else:
            finished[holder] = t
        holder = queue.pop(0) if queue else None
    return finished, charged


def _slice_consumers(sim, cpu, starts, demands, log):
    ledgers = [_Ledger() for _ in demands]

    def consumer(index):
        yield Sleep(starts[index])
        run = SliceRun(demands[index], ledgers[index])
        run.cpu = cpu
        cpu.runnable += 1
        while run.remaining > 1e-9:
            yield run
        cpu.runnable -= 1
        log.append((index, sim.now))

    for index in range(len(demands)):
        spawn(sim, consumer(index))
    return ledgers


@pytest.mark.parametrize("speed", [1.0, 0.5, 1.25])
def test_slice_runs_share_the_core_on_the_per_quantum_floats(speed):
    """Five runs with unequal demands, arriving mid-quantum one after
    another, finish at exactly the floats of the per-quantum schedule —
    and the whole rotation, hundreds of quanta, costs a few events per
    run."""
    sim = Simulator()
    cpu = Cpu(sim, quantum=0.01, speed=speed)
    starts = [0.0, 0.0137, 0.0291, 0.0618, 0.3333]
    demands = [1.0, 0.3337, 2.0, 0.05, 1.4142]
    log = []
    ledgers = _slice_consumers(sim, cpu, starts, demands, log)
    sim.run()
    finished, charged = _round_robin(starts, demands, 0.01, speed)
    assert sorted(log) == list(enumerate(finished))
    assert [ledger.cpu_time for ledger in ledgers] == charged
    assert cpu.total_demand == pytest.approx(sum(demands))
    assert cpu.core.in_use == 0 and cpu.runnable == 0
    assert cpu.utilization() == pytest.approx(1.0)  # never idle
    quanta = sum(demands) / (0.01 * speed)
    assert quanta > 380
    assert sim.events_fired < 6 * len(demands)


def test_slice_run_events_grow_with_runs_not_with_quanta():
    def events(demand):
        sim = Simulator()
        cpu = Cpu(sim, quantum=0.01)
        _slice_consumers(sim, cpu, [0.0, 0.0013, 0.0029, 0.0041],
                         [demand * k for k in (1, 2, 3, 4)], [])
        sim.run()
        return sim.events_fired

    # A hundred times the quanta: a few more doublings of the horizon.
    assert events(40.0) - events(0.4) <= 12


def test_foreign_waiter_takes_its_turn_in_the_rotation():
    """``Cpu.consume`` arriving while two runs rotate gets the core when
    it reaches the head of the queue — after each run has had one more
    quantum — and holds it for its (shorter) slice."""
    sim = Simulator()
    cpu = Cpu(sim, quantum=0.01)
    log = []
    ledgers = _slice_consumers(sim, cpu, [0.0, 0.001], [0.1, 0.1], log)

    def foreign():
        yield Sleep(0.025)  # in the third quantum: run 0 holds, run 1 waits
        yield from cpu.consume(0.004)
        log.append(("foreign", sim.now))

    spawn(sim, foreign())
    sim.run(until=0.0301)
    # Settled on arrival (two boundaries), nothing since.
    assert [ledger.cpu_time for ledger in ledgers] == [0.01, 0.01]
    sim.run(until=0.0445)
    # Run 0 finished its quantum at 0.03, run 1 ran to 0.04, then the
    # foreign slice: 0.04 .. 0.044.
    assert log == [("foreign", 0.01 + 0.01 + 0.01 + 0.01 + 0.004)]
    assert cpu.core.run is not None and cpu.core.queue_length == 1
    sim.run()
    assert sorted(entry[1] for entry in log[1:]) == pytest.approx([0.194, 0.204])
    assert cpu.total_demand == pytest.approx(0.204)


def test_interrupted_slice_run_is_charged_only_as_the_holder():
    sim = Simulator()
    cpu = Cpu(sim, quantum=0.01)
    ledgers = [_Ledger(), _Ledger()]
    charged = []

    def consumer(index):
        run = SliceRun(1.0, ledgers[index],
                       lambda n, consumed: charged.append((index, n, consumed)))
        run.cpu = cpu
        try:
            yield run
        except Interrupted:
            run.charge_partial()
        return run.remaining

    holder = spawn(sim, consumer(0))
    waiter = spawn(sim, consumer(1))
    sim.run(until=0.005)
    assert cpu.core.run is not None and cpu.core.queue_length == 1
    waiter.interrupt()
    sim.run(until=0.0051)
    assert waiter.result == 1.0 and ledgers[1].cpu_time == 0.0
    assert cpu.core.queue_length == 0
    sim.run(until=0.0275)
    holder.interrupt()
    sim.run(until=0.03)
    # Two whole quanta, then 7.5 ms of the third.
    assert charged == [(0, 2, 0.01), (0, 1, 0.0275 - (0.01 + 0.01))]
    assert ledgers[0].cpu_time == 0.01 + 0.01 + (0.0275 - (0.01 + 0.01))
    assert holder.result == 1.0 - ledgers[0].cpu_time
    assert cpu.core.in_use == 0 and cpu.core.run is None
    assert cpu.total_demand == ledgers[0].cpu_time
    assert sim.pending_events == 0


def test_release_by_a_non_holder_is_an_error():
    sim = Simulator()
    cpu = Cpu(sim)
    with pytest.raises(ValueError):
        cpu.core.release()

    def consumer():
        run = SliceRun(1.0, _Ledger())
        run.cpu = cpu
        yield run

    spawn(sim, consumer())
    sim.run(until=0.5)
    with pytest.raises(ValueError):
        cpu.core.release()  # the run holds the core, not the caller
