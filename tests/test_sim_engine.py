"""Unit tests for the discrete-event engine."""

import pytest

from repro.config import ClusterParams
from repro.net import Lan, NetNode, Packet
from repro.obs.profile import EngineProfiler
from repro.sim import (
    Channel,
    ChannelClosed,
    SimError,
    SimEvent,
    Simulator,
    SimulationDeadlock,
    Sleep,
    Ticker,
    run_until_complete,
    spawn,
)


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


def test_deadlock_names_the_oldest_blocked_tasks():
    sim = Simulator()

    def stuck(sim):
        yield SimEvent(sim, "never").wait()

    def quick():
        yield Sleep(1.0)

    spawn(sim, quick(), name="quick")
    for index in range(7):
        spawn(sim, stuck(sim), name=f"stuck-{index}")
    with pytest.raises(SimulationDeadlock) as raised:
        sim.run()
    assert str(raised.value) == (
        "event queue drained with 7 task(s) still blocked: "
        "stuck-0, stuck-1, stuck-2, stuck-3, stuck-4 and 2 more"
    )


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


@pytest.mark.parametrize("driver", [Simulator.run_until_idle, Simulator.step])
def test_every_driver_shares_the_reentrancy_guard(driver):
    sim = Simulator()
    seen = []

    def reenter():
        with pytest.raises(RuntimeError):
            driver(sim)
        seen.append(sim.now)

    sim.schedule(1.0, reenter)
    sim.schedule(2.0, seen.append, "later")
    sim.run()
    # The refused inner call left the outer loop's state alone.
    assert seen == [1.0, "later"]
    assert sim.events_fired == 2


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
# Fast-path internals: ready queue, defer, fan-out order, compaction,
# O(1) pending_events accounting.
# ----------------------------------------------------------------------
def _recount_pending(sim):
    """O(n) recount of ``Simulator.pending_events``, the reference its
    O(1) bookkeeping is held to."""
    heap_live = sum(1 for _t, _s, h in sim._heap if not h.cancelled)
    ready_live = sum(
        1 for entry in sim._ready
        if entry[2] is None or not entry[2].cancelled
    )
    return heap_live + ready_live


def test_pending_events_counter_matches_slow_recount():
    sim = Simulator()
    handles = []
    for i in range(20):
        handles.append(sim.schedule(1.0 + i, lambda: None))
    for i in range(10):
        handles.append(sim.call_soon(lambda: None))
    sim.defer(lambda: None)
    assert sim.pending_events == 31 == _recount_pending(sim)
    for handle in handles[::3]:
        handle.cancel()
    assert sim.pending_events == _recount_pending(sim)
    sim.run(until=5.0)
    assert sim.pending_events == _recount_pending(sim)
    sim.run()
    assert sim.pending_events == 0 == _recount_pending(sim)


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


def _fan_out(source):
    """Four waiters parked on one wake-up ``source`` are woken at 1 s by
    a task that queues a ``call_soon`` just before the wake-up and one
    just after.  Returns ``(time, what)`` for everything that ran."""
    sim = Simulator()
    log = []
    if source == "trigger":
        event = SimEvent(sim)
        parks = [event.wait] * 4

        def wake():
            event.trigger()
            yield from ()
    elif source == "close":
        channel = Channel(sim)
        parks = [channel.get] * 4

        def wake():
            channel.close()
            yield from ()
    else:
        # No wire time: the broadcast delivers at the instant it is sent.
        lan = Lan(sim, ClusterParams(net_latency=0.0))
        nodes = [NetNode(sim, f"n{i}") for i in range(5)]
        for node in nodes:
            lan.register(node)
        parks = [node.inbox.get for node in nodes[1:]]

        def wake():
            yield from lan.broadcast(
                Packet(nodes[0].address, 0, "hello", None, 0)
            )

    def waiter(i, park):
        try:
            yield park()
        except ChannelClosed:
            pass
        log.append((sim.now, i))

    def waker():
        yield Sleep(1.0)
        sim.call_soon(log.append, (sim.now, "before"))
        yield from wake()
        sim.call_soon(log.append, (sim.now, "after"))

    for i, park in enumerate(parks):
        spawn(sim, waiter(i, park))
    spawn(sim, waker())
    sim.run()
    return log


@pytest.mark.parametrize("source", ["trigger", "close", "broadcast"])
def test_fan_out_wakes_waiters_in_registration_order(source):
    """An event's waiters, a closed channel's parked getters and a
    broadcast's parked receivers resume one ready event each, in the
    order they registered, behind what was queued before the wake-up
    and ahead of what is queued after it."""
    assert _fan_out(source) == [
        (1.0, "before"), (1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3), (1.0, "after"),
    ]


def test_cancel_call_soon_handle():
    sim = Simulator()
    fired = []
    handle = sim.call_soon(fired.append, "x")
    sim.call_soon(fired.append, "y")
    handle.cancel()
    sim.run()
    assert fired == ["y"]
    assert sim.pending_events == 0 == _recount_pending(sim)


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
    assert sim.pending_events == 0 == _recount_pending(sim)


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
    assert sim.pending_events == 0 == _recount_pending(sim)


# ----------------------------------------------------------------------
# One event loop, five drivers
# ----------------------------------------------------------------------
def _parity_scenario(sim):
    """Ready-queue traffic, heap timers with same-instant ties, cancelled
    handles in both queues, a heap compaction and a task to complete."""
    log = []

    def note(label):
        log.append((sim.now, label))

    for i in range(6):
        sim.schedule(0.5 * (i % 3 + 1), note, f"timer{i}")

    def chain(n):
        note(f"chain{n}")
        if n:
            sim.defer(note, f"deferred{n}")
            if n % 2:
                sim.call_soon(chain, n - 1)
            else:
                sim.schedule(0.25, chain, n - 1)

    sim.call_soon(chain, 8)
    sim.call_soon(note, "cancelled-while-ready").cancel()
    doomed = sim.schedule(0.75, note, "cancelled-in-heap")
    sim.schedule(0.5, doomed.cancel)

    def churn():
        timeouts = [
            sim.schedule(100.0 + i, note, f"timeout{i}") for i in range(80)
        ]
        for handle in timeouts[:70]:
            handle.cancel()          # over half the heap: compacts
        late = []                    # cancelled by the event ahead of it
        sim.defer(lambda: late[0].cancel())
        late.append(sim.call_soon(note, "cancelled-at-the-same-instant"))
        note("churned")

    sim.schedule(1.0, churn)

    def main():
        yield Sleep(0.3)
        note("main-a")
        yield Sleep(0)
        note("main-b")
        yield Sleep(1.7)
        sim.call_soon(note, "behind-main")
        note("main-done")
        return "ok"

    return log, spawn(sim, main(), name="main")


def _by_run(sim, task):
    sim.run()


def _by_slices(sim, task):
    for until in (0.25, 0.5, 0.5, 1.1, 2.0, 150.0):
        sim.run(until=until)
        assert sim.now == until
    sim.run()


def _by_step(sim, task):
    fired = sim.events_fired
    while sim.step():
        fired += 1
        assert sim.events_fired == fired
        assert sim.pending_events == _recount_pending(sim)
    assert sim.events_fired == fired


def _by_run_until_idle(sim, task):
    sim.run_until_idle()


def _by_run_until_complete(sim, task):
    assert run_until_complete(sim, task) == "ok"
    sim.run()


@pytest.mark.parametrize("profiled", [False, True])
def test_every_driver_dispatches_the_same_sequence(profiled):
    outcomes = {}
    for drive in (_by_run, _by_slices, _by_step, _by_run_until_idle,
                  _by_run_until_complete):
        sim = Simulator()
        profiler = EngineProfiler().install(sim) if profiled else None
        log, task = _parity_scenario(sim)
        drive(sim, task)
        assert sim.pending_events == 0 == _recount_pending(sim)
        assert task.result == "ok"
        if profiler is not None:
            assert profiler.events == sim.events_fired
        outcomes[drive.__name__] = (
            log, sim.now, sim.events_fired, sim.heap_compactions,
        )
    reference = outcomes.pop("_by_run")
    log, now, events_fired, compactions = reference
    assert compactions >= 1
    assert not any("cancelled" in label for _now, label in log)
    assert len(log) < events_fired          # task resumes fire but log nothing
    for name, outcome in outcomes.items():
        assert outcome == reference, name


def test_run_until_a_time_already_past_fires_nothing():
    sim = Simulator()
    fired = []
    sim.run(until=2.0)
    sim.call_soon(fired.append, "ready")
    sim.schedule(0.5, fired.append, "timer")
    assert sim.run(until=1.0) == 2.0
    assert (fired, sim.events_fired, sim.pending_events) == ([], 0, 2)
    sim.run()
    assert fired == ["ready", "timer"]


def test_run_until_complete_stops_right_after_the_finishing_event():
    sim = Simulator()
    fired = []

    def main():
        yield Sleep(1.0)
        sim.call_soon(fired.append, "behind")
        return 7

    task = spawn(sim, main(), name="main")
    sim.schedule(1.0, fired.append, "ahead")
    assert run_until_complete(sim, task) == 7
    # The same-instant event queued behind the finishing one is pending.
    assert (fired, sim.now, sim.pending_events) == (["ahead"], 1.0, 1)
    # A task that is already done fires nothing.
    before = sim.events_fired
    assert run_until_complete(sim, task) == 7
    assert (sim.events_fired, sim.pending_events) == (before, 1)
    sim.run()
    assert fired == ["ahead", "behind"]


def test_run_until_complete_raises_when_the_queue_drains_first():
    sim = Simulator()
    never = SimEvent(sim, "never")

    def waiter():
        yield never.wait()

    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimError, match="drained before task 'stuck'"):
        run_until_complete(sim, waiter(), name="stuck")
    assert sim.now == 1.0


def _ticks(ticked):
    """Seven members fired every second for 6 s, with a Ticker or with a
    self-rescheduling timer each.  ``b`` schedules an event for the next
    tick at 2 s, ``d`` leaves at 3 s, ``f`` joins at the start and ``g``
    tries to once an event is queued behind the run."""
    sim = Simulator()
    log = []

    def member(name, side_at=None, leave_at=None):
        def fn():
            log.append((sim.now, name))
            if sim.now == side_at:
                sim.schedule(1.0, log.append, (sim.now + 1.0, f"{name}-side"))
            return sim.now == leave_at
        return fn

    def timer(fn):
        if not fn():
            sim.schedule(1.0, timer, fn)

    members = [member("a"), member("b", side_at=2.0), member("c"),
               member("d", leave_at=3.0), member("e")]
    f, g = member("f"), member("g")
    ticker = Ticker(sim, 1.0)
    if ticked:
        ticker.start(members)
        assert ticker.join(f, 1.0)
    else:
        for fn in members + [f]:
            sim.schedule(1.0, timer, fn)
    sim.schedule(1.0, log.append, (1.0, "x"))
    if not (ticked and ticker.join(g, 1.0)):
        sim.schedule(1.0, timer, g)
    sim.run(until=6.0)
    return log, sim.events_fired


def test_ticker_fires_in_the_order_of_separate_timers():
    """A run of members is one event and fires them where their own
    timers would: ``b`` re-arms behind the side event it scheduled, so
    the run splits there for the second at 3 s and is whole again at
    4 s, and ``g``, refused, fires after ``x`` on its own timer."""
    ticked, events = _ticks(True)
    timed, timed_events = _ticks(False)
    assert ticked == timed
    assert [name for t, name in ticked if t == 3.0] == \
        ["a", "b-side", "b", "c", "d", "e", "f", "g"]
    # 6 members' timers for 6 s, less d's 3 after it left, become one
    # event a second plus one more at 3 s.
    assert timed_events - events == (6 * 6 - 3) - (6 + 1)


def test_ticker_refuses_a_member_of_another_period_or_instant():
    sim = Simulator()
    ticker = Ticker(sim, 1.0)
    assert not ticker.join(lambda: None, 1.0)      # nothing armed yet
    ticker.start([lambda: None])
    assert not ticker.join(lambda: None, 2.0)
    sim.run(until=0.5)
    assert not ticker.join(lambda: None, 1.0)      # due at 1.5, not 1.0
    with pytest.raises(ValueError):
        Ticker(sim, 0.0)
