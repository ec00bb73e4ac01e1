"""Unit tests for tasks, events, joins, interrupts, and races."""

import pytest

from repro.sim import (
    TIMED_OUT,
    Interrupted,
    SimEvent,
    Simulator,
    Sleep,
    TaskFailed,
    first,
    spawn,
)


def test_task_returns_result():
    sim = Simulator()

    def job():
        yield Sleep(2.0)
        return 42

    task = spawn(sim, job())
    sim.run()
    assert task.done
    assert task.result == 42
    assert sim.now == 2.0


def test_spawn_requires_generator():
    sim = Simulator()

    def not_a_gen():
        return 1

    with pytest.raises(TypeError, match="generator"):
        spawn(sim, not_a_gen)  # type: ignore[arg-type]


def test_yield_from_composition():
    sim = Simulator()

    def inner():
        yield Sleep(1.0)
        return "inner-result"

    def outer():
        value = yield from inner()
        yield Sleep(1.0)
        return value + "!"

    task = spawn(sim, outer())
    sim.run()
    assert task.result == "inner-result!"
    assert sim.now == 2.0


def test_join_waits_for_completion():
    sim = Simulator()

    def worker():
        yield Sleep(3.0)
        return "payload"

    def boss(worker_task):
        value = yield worker_task.join()
        return (sim.now, value)

    worker_task = spawn(sim, worker())
    boss_task = spawn(sim, boss(worker_task))
    sim.run()
    assert boss_task.result == (3.0, "payload")


def test_join_already_finished_task():
    sim = Simulator()

    def quick():
        yield Sleep(1.0)
        return "done"

    quick_task = spawn(sim, quick())

    def late_joiner():
        yield Sleep(10.0)
        value = yield quick_task.join()
        return value

    late = spawn(sim, late_joiner())
    sim.run()
    assert late.result == "done"


def test_join_failed_task_raises_taskfailed():
    sim = Simulator()

    def bomb():
        yield Sleep(1.0)
        raise RuntimeError("kaboom")

    def joiner(bomb_task):
        with pytest.raises(TaskFailed) as exc_info:
            yield bomb_task.join()
        return str(exc_info.value.original)

    bomb_task = spawn(sim, bomb(), name="bomb")
    joiner_task = spawn(sim, joiner(bomb_task))
    sim.run()
    assert joiner_task.result == "kaboom"


def test_event_trigger_wakes_all_waiters():
    sim = Simulator()
    event = SimEvent(sim, "go")
    woken = []

    def waiter(label):
        value = yield event.wait()
        woken.append((label, value, sim.now))

    spawn(sim, waiter("a"))
    spawn(sim, waiter("b"))
    sim.schedule(5.0, event.trigger, "green")
    sim.run()
    assert sorted(woken) == [("a", "green", 5.0), ("b", "green", 5.0)]


def test_event_wait_after_trigger_resumes_immediately():
    sim = Simulator()
    event = SimEvent(sim)
    event.trigger(7)

    def waiter():
        value = yield event.wait()
        return (sim.now, value)

    task = spawn(sim, waiter())
    sim.run()
    assert task.result == (0.0, 7)


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = SimEvent(sim)
    event.trigger()
    with pytest.raises(Exception, match="twice"):
        event.trigger()


def test_event_fail_propagates_to_waiters():
    sim = Simulator()
    event = SimEvent(sim)

    def waiter():
        try:
            yield event.wait()
        except RuntimeError as err:
            return f"caught {err}"

    task = spawn(sim, waiter())
    sim.schedule(1.0, event.fail, RuntimeError("nope"))
    sim.run()
    assert task.result == "caught nope"


def test_interrupt_cancels_sleep():
    sim = Simulator()

    def sleeper():
        try:
            yield Sleep(100.0)
        except Interrupted as intr:
            return ("interrupted", intr.cause, sim.now)

    task = spawn(sim, sleeper())
    sim.schedule(2.0, task.interrupt, "wake-up")
    sim.run()
    assert task.result == ("interrupted", "wake-up", 2.0)


def test_uncaught_interrupt_kills_task_quietly():
    sim = Simulator()

    def sleeper():
        yield Sleep(100.0)

    task = spawn(sim, sleeper())
    sim.schedule(1.0, task.interrupt, "die")
    sim.run()
    assert task.done
    assert task.exception is None
    assert task.result == "die"


def test_interrupt_finished_task_returns_false():
    sim = Simulator()

    def quick():
        yield Sleep(1.0)

    task = spawn(sim, quick())
    sim.run()
    assert task.interrupt("late") is False


def test_joiner_of_interrupted_task_gets_cause():
    sim = Simulator()

    def sleeper():
        yield Sleep(100.0)

    def joiner(target):
        value = yield target.join()
        return value

    sleeper_task = spawn(sim, sleeper())
    joiner_task = spawn(sim, joiner(sleeper_task))
    sim.schedule(1.0, sleeper_task.interrupt, "evicted")
    sim.run()
    assert joiner_task.result == "evicted"


def test_first_returns_winner_and_cancels_losers():
    sim = Simulator()
    event = SimEvent(sim)

    def racer():
        index, value = yield first(Sleep(10.0), event.wait())
        return (index, value, sim.now)

    task = spawn(sim, racer())
    sim.schedule(3.0, event.trigger, "evt")
    sim.run()
    assert task.result == (1, "evt", 3.0)
    # The losing sleep was cancelled: clock should not advance to 10.
    assert sim.now == 3.0


def test_first_sleep_wins():
    sim = Simulator()
    event = SimEvent(sim)

    def racer():
        index, value = yield first(Sleep(1.0), event.wait())
        return index

    task = spawn(sim, racer())
    sim.run(until=5.0)
    assert task.result == 0


def _timed_wait_scenario(timed_wait, trigger_at, timeout, fail=False,
                         interrupt_at=None, prefired=False):
    """One waiter racing an event against a deadline, among bystanders
    that wake in the same instants; returns everything observable."""
    sim = Simulator()
    event = SimEvent(sim, name="reply")
    log = []

    def waiter():
        yield Sleep(1.0)
        try:
            value = yield from timed_wait(event, timeout)
        except (RuntimeError, Interrupted) as err:
            value = repr(err)
        log.append(("waiter", sim.now, "timeout" if value is TIMED_OUT else value))
        yield Sleep(10.0)  # a stale wake-up would cut this short
        log.append(("waiter-slept", sim.now))

    def bystander(label, delay):
        yield Sleep(delay)
        log.append((label, sim.now))

    def fire():
        if fail:
            event.fail(RuntimeError("boom"))
        else:
            event.trigger("value")

    spawn(sim, bystander("before", 1.0 + timeout))
    if prefired:
        fire()
    else:
        sim.schedule(trigger_at, fire)
    task = spawn(sim, waiter())
    spawn(sim, bystander("after", 1.0 + timeout))
    spawn(sim, bystander("with-trigger", trigger_at))
    if interrupt_at is not None:
        sim.schedule(interrupt_at, task.interrupt, "poke")
    sim.run()
    assert sim.pending_events == 0 and event._waiters == []
    return log, sim.now


def _first_timed_wait(event, timeout):
    index, value = yield first(event.wait(), Sleep(timeout))
    return TIMED_OUT if index == 1 else value


def _new_timed_wait(event, timeout):
    return (yield event.wait(timeout=timeout))


@pytest.mark.parametrize("case", [
    dict(trigger_at=2.0, timeout=5.0),                  # the event wins
    dict(trigger_at=9.0, timeout=5.0),                  # the deadline wins
    dict(trigger_at=6.0, timeout=5.0),                  # both in one instant
    dict(trigger_at=2.0, timeout=5.0, fail=True),       # the event fails
    dict(trigger_at=0.5, timeout=5.0, prefired=True),   # fired beforehand
    dict(trigger_at=0.5, timeout=0.0, prefired=True),
    dict(trigger_at=9.0, timeout=0.0),                  # zero deadline
    dict(trigger_at=9.0, timeout=5.0, interrupt_at=3.0),
    dict(trigger_at=3.0, timeout=5.0, interrupt_at=3.0),  # poke and trigger tie
])
def test_event_wait_with_timeout_is_first_of_wait_and_sleep(case):
    """``event.wait(timeout=t)`` against ``first(event.wait(), Sleep(t))``:
    same results at the same instants, in the same order among everything
    else that happens in them."""
    expected = _timed_wait_scenario(_first_timed_wait, **case)
    assert _timed_wait_scenario(_new_timed_wait, **case) == expected
    outcomes = [entry[2] for entry in expected[0] if entry[0] == "waiter"]
    assert len(outcomes) == 1


def test_event_wait_rejects_a_negative_timeout():
    with pytest.raises(ValueError):
        SimEvent(Simulator()).wait(timeout=-1.0)


def test_yielding_non_effect_fails_task():
    sim = Simulator()

    def bad():
        yield 42  # type: ignore[misc]

    spawn(sim, bad(), name="bad")
    with pytest.raises(TypeError, match="not an Effect"):
        sim.run()


def test_self_interrupt_delivered_at_next_suspension():
    sim = Simulator()

    def selfish(task_ref):
        yield Sleep(1.0)
        # interrupt self while running: pending flag set, delivered at
        # the next yield below.
        task_ref[0].interrupt("self")
        try:
            yield Sleep(5.0)
        except Interrupted as intr:
            return intr.cause

    holder = [None]
    task = spawn(sim, selfish(holder))
    holder[0] = task
    sim.run()
    assert task.result == "self"


def test_many_tasks_complete_deterministically():
    sim = Simulator()
    finish_order = []

    def job(i):
        yield Sleep(float(i % 7) + 1.0)
        finish_order.append(i)

    for i in range(50):
        spawn(sim, job(i))
    sim.run()
    assert len(finish_order) == 50
    # Same delay -> FIFO by spawn order.
    expected = sorted(range(50), key=lambda i: (i % 7, i))
    assert finish_order == expected


def test_first_of_first_composition():
    """Combinators nest: race an inner race against a deadline.  The
    inner winner's ``(index, value)`` is the outer winner's value, and
    every loser is disarmed."""
    sim = Simulator()
    slow, fast = SimEvent(sim), SimEvent(sim)

    def racer():
        index, value = yield first(
            first(slow.wait(), fast.wait()),
            Sleep(10.0),
        )
        return (index, value, sim.now)

    task = spawn(sim, racer())
    sim.schedule(2.0, slow.trigger, "slow")
    sim.schedule(1.0, fast.trigger, "fast")
    sim.run(until=20.0)
    assert task.result == (0, (1, "fast"), 1.0)
    assert slow._waiters == [] and sim.pending_events == 0


def test_first_of_first_deadline_wins():
    sim = Simulator()
    never = SimEvent(sim)

    def racer():
        index, _value = yield first(
            first(never.wait(), Sleep(5.0)),
            Sleep(3.0),
        )
        return (index, sim.now)

    task = spawn(sim, racer())
    sim.run(until=10.0)
    assert task.result == (1, 3.0)
    assert never._waiters == [] and sim.pending_events == 0
