"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator, SimulationDeadlock, SimEvent, Sleep, spawn


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_cancelled_event_is_skipped():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    handle.cancel()
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.5, lambda: None)


def test_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.schedule_at(5.0, fired.append, "later"))
    sim.run()
    assert fired == ["later"]
    assert sim.now == 5.0


def test_schedule_at_lands_on_the_exact_float():
    # now + (time - now) is not time: 0.3 + (0.9 - 0.3) == 0.9000000000000001
    sim = Simulator()
    fired = []
    sim.schedule(0.3, lambda: sim.schedule_at(0.9, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [0.9]


def test_schedule_at_now_is_call_soon_and_the_past_is_an_error():
    sim = Simulator()
    order = []

    def at_two():
        sim.schedule_at(2.0, order.append, "same instant")
        order.append("first")
        with pytest.raises(ValueError):
            sim.schedule_at(1.5, order.append, "never")

    sim.schedule(2.0, at_two)
    sim.run()
    assert order == ["first", "same instant"]
    assert sim.now == 2.0


def test_call_soon_runs_after_pending_same_time_events():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "first")

    def at_one():
        sim.call_soon(order.append, "soon")

    sim.schedule(1.0, at_one)
    sim.schedule(1.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "soon"]


def test_deadlock_detection():
    sim = Simulator()

    def stuck(sim):
        yield SimEvent(sim, "never").wait()

    spawn(sim, stuck(sim), name="stuck")
    with pytest.raises(SimulationDeadlock):
        sim.run()


def test_run_until_tolerates_blocked_tasks():
    sim = Simulator()

    def stuck(sim):
        yield SimEvent(sim, "never").wait()

    spawn(sim, stuck(sim), name="stuck")
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_pending_events_counts_uncancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    gone = sim.schedule(2.0, lambda: None)
    gone.cancel()
    assert sim.pending_events == 1
    assert keep is not None


def test_run_is_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(RuntimeError):
            sim.run()

    sim.schedule(1.0, reenter)
    sim.run()


def test_sleep_zero_allowed():
    sim = Simulator()
    done = []

    def napper():
        yield Sleep(0.0)
        done.append(sim.now)

    spawn(sim, napper())
    sim.run()
    assert done == [0.0]


def test_detached_task_failure_surfaces_in_run():
    sim = Simulator()

    def bomb():
        yield Sleep(1.0)
        raise ValueError("boom")

    spawn(sim, bomb(), name="bomb")
    with pytest.raises(ValueError, match="boom"):
        sim.run()


# ----------------------------------------------------------------------
# Fast-path internals: ready queue, defer, schedule_many, compaction,
# O(1) pending_events accounting.
# ----------------------------------------------------------------------
def test_pending_events_counter_matches_slow_recount():
    sim = Simulator()
    handles = []
    for i in range(20):
        handles.append(sim.schedule(1.0 + i, lambda: None))
    for i in range(10):
        handles.append(sim.call_soon(lambda: None))
    sim.defer(lambda: None)
    assert sim.pending_events == 31 == sim._pending_events_slow()
    for handle in handles[::3]:
        handle.cancel()
    assert sim.pending_events == sim._pending_events_slow()
    sim.run(until=5.0)
    assert sim.pending_events == sim._pending_events_slow()
    sim.run()
    assert sim.pending_events == 0 == sim._pending_events_slow()


def test_defer_keeps_fifo_order_with_call_soon_and_schedule_zero():
    sim = Simulator()
    order = []
    sim.call_soon(order.append, "a")
    sim.defer(order.append, "b")
    sim.schedule(0.0, order.append, "c")
    sim.defer(order.append, "d")
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_ready_events_interleave_with_same_time_heap_events():
    # A zero-delay event scheduled *before* a timed event that fires at
    # the same instant must still respect global FIFO (seq) order.
    sim = Simulator()
    order = []

    def at_two():
        sim.schedule(1.0, order.append, "heap")      # fires at t=3
        sim.schedule(1.0, spill)                      # fires at t=3

    def spill():
        sim.call_soon(order.append, "ready")          # also t=3, later seq

    sim.schedule(2.0, at_two)
    sim.run()
    assert order == ["heap", "ready"]
    assert sim.now == 3.0


def test_schedule_many_zero_delay_preserves_order():
    sim = Simulator()
    order = []
    sim.call_soon(order.append, "before")
    count = sim.schedule_many(0.0, [(order.append, (i,)) for i in range(5)])
    sim.call_soon(order.append, "after")
    assert count == 5
    sim.run()
    assert order == ["before", 0, 1, 2, 3, 4, "after"]


def test_schedule_many_timed_matches_individual_schedules():
    sim_a, sim_b = Simulator(), Simulator()
    order_a, order_b = [], []
    sim_a.schedule(2.0, order_a.append, "x")
    sim_a.schedule_many(1.0, [(order_a.append, (i,)) for i in range(3)])
    sim_b.schedule(2.0, order_b.append, "x")
    for i in range(3):
        sim_b.schedule(1.0, order_b.append, i)
    assert sim_a.run() == sim_b.run()
    assert order_a == order_b == [0, 1, 2, "x"]


def test_schedule_many_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule_many(-1.0, [(print, ())])


def test_cancel_call_soon_handle():
    sim = Simulator()
    fired = []
    handle = sim.call_soon(fired.append, "x")
    sim.call_soon(fired.append, "y")
    handle.cancel()
    sim.run()
    assert fired == ["y"]
    assert sim.pending_events == 0 == sim._pending_events_slow()


def test_events_fired_counts_dispatches_not_cancellations():
    sim = Simulator()
    for i in range(5):
        sim.schedule(1.0 + i, lambda: None)
    sim.schedule(9.0, lambda: None).cancel()
    sim.defer(lambda: None)
    sim.run()
    assert sim.events_fired == 6


def test_timeout_churn_keeps_heap_bounded():
    # The E10 pattern that used to grow the heap without bound: many
    # long timeouts scheduled and cancelled almost immediately.
    sim = Simulator()
    fired = []
    churn = 10_000

    def tick(i):
        handle = sim.schedule(1000.0, fired.append, i)   # the "timeout"
        handle.cancel()                                  # ...never needed
        if i + 1 < churn:
            sim.schedule(0.001, tick, i + 1)

    sim.schedule(0.001, tick, 0)
    sim.run()
    assert fired == []
    assert sim.heap_compactions > 0
    # Without compaction 10k corpses would sit in the heap; with it the
    # heap never holds more than a small constant of live entries.
    assert len(sim._heap) < 200
    assert sim.pending_events == 0 == sim._pending_events_slow()


def test_cancelled_closure_is_not_pinned_by_heap_corpse():
    import gc
    import weakref

    class Canary:
        pass

    sim = Simulator()
    canary = Canary()
    ref = weakref.ref(canary)
    handle = sim.schedule(1000.0, lambda obj: None, canary)
    handle.cancel()
    del canary
    gc.collect()
    # The corpse may still sit in the heap (handle is alive), but cancel
    # dropped fn/args so the payload is collectable immediately.
    assert ref() is None
    assert handle.cancelled


def test_run_until_pops_each_live_event_once():
    # Regression for the old peek-then-step double pop: count real heap
    # pops during a bounded run.
    import heapq as _heapq

    from repro.sim import engine as engine_mod

    sim = Simulator()
    for i in range(100):
        sim.schedule(1.0 + i, lambda: None)
    pops = [0]
    original = _heapq.heappop

    def counting_pop(heap):
        pops[0] += 1
        return original(heap)

    engine_mod.heapq.heappop = counting_pop
    try:
        sim.run(until=50.5)
        sim.run()
    finally:
        engine_mod.heapq.heappop = original
    assert sim.events_fired == 100
    assert pops[0] == 100


def test_late_cancel_after_fire_does_not_corrupt_accounting():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, handle.cancel)        # cancel after it already ran
    sim.schedule(3.0, fired.append, "y")
    sim.run()
    assert fired == ["x", "y"]
    assert sim.pending_events == 0 == sim._pending_events_slow()
