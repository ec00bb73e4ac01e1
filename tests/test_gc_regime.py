"""No collection by CPython's cyclic garbage collector changes a result.

A task parked on a wake-up that never comes used to be referred to only
by what it waited on, so task and generator were cyclic garbage.  A
collection then closed the generator and ran its ``finally`` blocks on
live state (a checkpoint lock, an in-flight count) at whatever simulated
instant the collection fell on.  The simulator now holds every
unfinished task (``Simulator._tasks``), so these pin that a run reads
the same with the collector off, with a collection at any instant and
as the Nth run in one process.

Every RPC wait now has a deadline, which the event heap holds, so the
run no longer parks such a task by itself: it parks one (``_park``),
whose ``finally`` writes a trace record if a collection closes it.
"""

from __future__ import annotations

import gc
from typing import Callable, List

import pytest

from repro.faults import run_chaos, run_matrix
from repro.faults.chaos import build_chaos_base
from repro.migration.eviction import _Poll
from repro.net.rpc import _Receiver
from repro.sim import SimEvent, Simulator, Sleep, Tracer, spawn
from repro.sim.engine import EventHandle
from repro.sim.tasks import Task, _FirstProxy, _TimedWait

from . import golden_migration

#: ``hybrid-0`` at seed 5 with no collection (or with every task held).
#: Its ``ckptd:ws1`` sends a page-out ``fs.write`` at 124.465 s and the
#: file-server outage at 124.8 s swallows the reply; the call's probe at
#: 139.9 s finds fs0 rebooted and fails, and the host checkpoints on.
HYBRID_SEED_5 = "5d5c78de03844360ec613bb89f8c99cea44e6486a2fbde984f83c941bedceef6"


def _park(sim: Simulator, tracer: Tracer) -> None:
    """Park a task on a wake-up that nothing else refers to, as a call
    waited before it probed: only the simulator's registry keeps it
    from being cyclic garbage."""

    def parked():
        try:
            yield SimEvent(sim, "never").wait()
        finally:
            tracer.emit(sim.now, "parked", "closed")

    spawn(sim, parked(), name="parked", daemon=True)


def _hybrid_seed_5(action: Callable[..., object], *times: float) -> str:
    """``hybrid-0``'s configuration at seed 5, with a task parked at
    100 s and ``action(sim)`` run by an event at each of the simulated
    ``times``; the trace fingerprint."""
    kwargs = dict(golden_migration.CHAOS_RUNS["hybrid-0"])
    del kwargs["seed"]
    base = build_chaos_base(5, kwargs.pop("workstations")).fork()
    base.sim.schedule(100.0, _park, base.sim, base.tracer)
    for at in times:
        base.sim.schedule(at, action, base.sim)
    report = run_chaos(base=base, **kwargs)
    assert report.violations == []
    return report.fingerprint


def _collect(sim: Simulator) -> None:
    gc.collect()


@pytest.mark.parametrize("times", [(), (130.0,), (150.0,)])
def test_a_collection_moves_no_result(times):
    was = gc.isenabled()
    gc.disable()
    try:
        fingerprint = _hybrid_seed_5(_collect, *times)
    finally:
        if was:
            gc.enable()
    assert fingerprint == HYBRID_SEED_5


def _parked(obj: object, sim: Simulator) -> bool:
    """Whether ``obj`` is an unfinished task of ``sim`` or a waiter that
    ``sim`` is still to wake: what a collection must never find as
    garbage."""
    if isinstance(obj, Task):
        return obj.sim is sim and not obj.done
    if isinstance(obj, _TimedWait):
        return obj.event.sim is sim and obj._waiter is not None
    if isinstance(obj, _FirstProxy):
        return obj.sim is sim and not obj.parent._settled
    if isinstance(obj, _Receiver):
        return obj.sim is sim and obj in obj.port.node.inbox._getters
    if isinstance(obj, _Poll):
        waiter = getattr(obj, "_waiter", None)
        return waiter is not None and waiter.sim is sim and waiter._pending is obj
    if isinstance(obj, EventHandle):
        return obj.sim is sim           # queued: neither fired nor cancelled
    return False


def test_no_parked_task_or_waiter_is_cyclic_garbage():
    # Every parked waiter is reachable from the simulator or from a
    # channel it owns: a collection that saves what it finds
    # unreachable finds none of them, before or after the hang.
    found: List[str] = []

    def probe(sim: Simulator) -> None:
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage, gc.garbage[:] = gc.garbage[:], []
        finally:
            gc.set_debug(0)
        found.extend(repr(obj) for obj in garbage if _parked(obj, sim))

    was = gc.isenabled()
    gc.disable()
    try:
        _hybrid_seed_5(probe, 60.0, 130.0, 200.0)
    finally:
        if was:
            gc.enable()
    assert found == []


def test_repeated_runs_in_one_process_equal_the_goldens():
    # N runs in one interpreter read what N fresh processes read: the
    # garbage earlier passes leave behind changes nothing.
    golden = golden_migration.load()["chaos"]
    for _ in range(3):
        for name, kwargs in sorted(golden_migration.CHAOS_RUNS.items()):
            assert run_chaos(**kwargs).fingerprint == golden[name], name
        golden_migration.assert_cells_match(run_matrix(seed=0, max_cells=12))


def test_the_simulator_holds_every_unfinished_task_in_spawn_order():
    sim = Simulator()
    ran = []

    def stuck(name):
        try:
            yield SimEvent(sim, "never").wait()
        finally:
            ran.append(name)

    def quick():
        yield Sleep(1.0)

    spawn(sim, stuck("a"), name="a")
    spawn(sim, quick(), name="quick")
    spawn(sim, stuck("b"), name="b")
    assert sim.live_tasks == 3
    sim.run_until_idle()
    assert [task.name for task in sim._tasks] == ["a", "b"]
    assert sim.live_tasks == 2
    gc.collect()
    assert ran == []        # only the simulator refers to them: not garbage
