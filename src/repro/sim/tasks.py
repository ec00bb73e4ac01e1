"""Coroutine tasks on top of the event queue.

A *task* is a Python generator driven by the simulator.  The generator
yields :class:`Effect` objects describing what it is waiting for —
sleeping, another task finishing, an event triggering — and is resumed
with the effect's result.  Sub-activities compose with ``yield from``.

Example::

    def worker(sim):
        yield Sleep(1.5)            # advance simulated time
        yield event.wait()          # block on a condition
        return "done"

    task = spawn(sim, worker(sim), name="worker")
    sim.run()
    assert task.result == "done"

The scheduling discipline is: a task is only ever resumed from the event
loop, never from inside another task's step, so tasks never re-enter one
another and runs are deterministic for a fixed seed.  A wake-up caused
*by another task* (an event triggered, a task joined, a channel fed) is
its own event at the current instant.  A wait whose end is known when it
begins is one timed event and nothing else: ``Sleep``, a
``Resource.hold`` (the unit is taken at the instant it is free or handed
over — a grant is not an event — and given back by the same event that
resumes the holder), a message on the ``Lan``, and the timeout arm of
``event.wait(timeout=...)``.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Generator, List, Optional

from .engine import EventHandle, Simulator
from .errors import Interrupted, SimError, SnapshotError, TaskFailed

__all__ = [
    "Effect",
    "all_of",
    "Sleep",
    "SimEvent",
    "Task",
    "spawn",
    "first",
    "run_until_complete",
    "with_timeout",
    "TIMED_OUT",
]

TaskGen = Generator["Effect", Any, Any]

#: What a timed wait resumes with when the deadline won:
#: ``event.wait(timeout=...)`` and :func:`with_timeout`.
TIMED_OUT = object()


class Effect:
    """Something a task can wait on.

    Subclasses arrange, in :meth:`bind`, for exactly one later call to
    ``waiter._resume(value)`` or ``waiter._throw(exc)``; :meth:`cancel`
    revokes that arrangement (used by interrupts and ``first``).
    """

    __slots__ = ()

    def bind(self, waiter: "_Waiter") -> None:
        raise NotImplementedError

    def cancel(self, waiter: "_Waiter") -> None:
        raise NotImplementedError


class _Waiter:
    """Protocol implemented by :class:`Task` and by ``first`` proxies."""

    __slots__ = ()

    sim: Simulator

    def _resume(self, value: Any) -> None:
        raise NotImplementedError

    def _throw(self, exc: BaseException) -> None:
        raise NotImplementedError


class Sleep(Effect):
    """Suspend the task for ``delay`` simulated seconds."""

    __slots__ = ("delay", "_handle", "_cancelled")

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"negative sleep: {delay}")
        self.delay = delay
        self._handle: Optional[EventHandle] = None
        self._cancelled = False

    def bind(self, waiter: _Waiter) -> None:
        if self.delay == 0.0:
            # ``Sleep(0)`` (yield to the scheduler) is the hottest resume
            # pattern: skip the EventHandle and let the effect's own
            # cancelled flag stand in for handle cancellation.
            waiter.sim.defer(self._fire, waiter)
        else:
            self._handle = waiter.sim.schedule(self.delay, waiter._resume, None)

    def _fire(self, waiter: _Waiter) -> None:
        if not self._cancelled:
            waiter._resume(None)

    def cancel(self, waiter: _Waiter) -> None:
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()


class SimEvent:
    """A one-shot condition tasks can wait on.

    ``trigger(value)`` wakes every waiter (and all future waiters
    immediately); ``fail(exc)`` propagates an exception instead.
    """

    __slots__ = ("sim", "_value", "_exc", "_fired", "_waiters", "name")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._fired = False
        self._waiters: List[_Waiter] = []

    @property
    def fired(self) -> bool:
        return self._fired

    def trigger(self, value: Any = None) -> None:
        if self._fired:
            raise SimError(f"event {self.name!r} triggered twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        if len(waiters) > 1:
            self.sim.schedule_many(
                0.0, [(waiter._resume, (value,)) for waiter in waiters]
            )
        else:
            for waiter in waiters:
                self.sim.defer(waiter._resume, value)

    def fail(self, exc: BaseException) -> None:
        if self._fired:
            raise SimError(f"event {self.name!r} triggered twice")
        self._fired = True
        self._exc = exc
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.sim.defer(waiter._throw, exc)

    def wait(self, timeout: Optional[float] = None) -> Effect:
        """Effect that waits for the event and yields its value — or,
        given a ``timeout``, :data:`TIMED_OUT` if that many seconds pass
        first."""
        if timeout is None:
            return _EventWait(self)
        return _TimedWait(self, timeout)


class _EventWait(Effect):
    __slots__ = ("event",)

    def __init__(self, event: SimEvent):
        self.event = event

    def bind(self, waiter: _Waiter) -> None:
        if self.event._fired:
            if self.event._exc is not None:
                waiter.sim.defer(waiter._throw, self.event._exc)
            else:
                waiter.sim.defer(waiter._resume, self.event._value)
        else:
            self.event._waiters.append(waiter)

    def cancel(self, waiter: _Waiter) -> None:
        try:
            self.event._waiters.remove(waiter)
        except ValueError:
            pass


class _TimedWait(Effect, _Waiter):
    """``event.wait(timeout=t)``: the event's waiter and the deadline's
    target in one object.

    It is ``first(event.wait(), Sleep(t))`` without the proxies: the
    same arrangements are made in the same order (park on the event, or
    defer the resume if it has already fired; then arm the deadline),
    and whichever fires first revokes the other and resumes the task
    within the same event — so it takes the same sequence numbers and
    the schedule cannot tell the two apart.  ``_waiter`` is ``None``
    once the race is settled.
    """

    __slots__ = ("event", "timeout", "_waiter", "_handle")

    def __init__(self, event: SimEvent, timeout: float):
        if timeout < 0:
            raise ValueError(f"negative timeout: {timeout}")
        self.event = event
        self.timeout = timeout
        self._waiter: Optional[_Waiter] = None
        self._handle: Optional[EventHandle] = None

    def bind(self, waiter: _Waiter) -> None:
        event = self.event
        sim = event.sim
        self._waiter = waiter
        if not event._fired:
            event._waiters.append(self)
        elif event._exc is not None:
            sim.defer(self._throw, event._exc)
        else:
            sim.defer(self._resume, event._value)
        self._handle = sim.schedule(self.timeout, self._timed_out)

    def _resume(self, value: Any) -> None:
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            self._handle.cancel()
            waiter._resume(value)

    def _throw(self, exc: BaseException) -> None:
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            self._handle.cancel()
            waiter._throw(exc)

    def _timed_out(self) -> None:
        waiter = self._waiter  # never settled: settling cancels this event
        self._unpark()
        waiter._resume(TIMED_OUT)

    def cancel(self, waiter: _Waiter) -> None:
        self._handle.cancel()
        self._unpark()

    def _unpark(self) -> None:
        self._waiter = None
        try:
            self.event._waiters.remove(self)
        except ValueError:
            pass  # triggered at this very instant: its resume finds us settled


class _Join(Effect):
    __slots__ = ("task",)

    def __init__(self, task: "Task"):
        self.task = task

    def bind(self, waiter: _Waiter) -> None:
        task = self.task
        if task.done:
            if task.exception is not None:
                waiter.sim.defer(
                    waiter._throw, TaskFailed(task.name, task.exception)
                )
            else:
                waiter.sim.defer(waiter._resume, task.result)
        else:
            task._joiners.append(waiter)

    def cancel(self, waiter: _Waiter) -> None:
        try:
            self.task._joiners.remove(waiter)
        except ValueError:
            pass


class Task(_Waiter):
    """A generator coroutine scheduled on a simulator.

    States: created -> running <-> waiting -> done/failed.  A task is
    ``daemon`` if its failure should be fatal to the whole run even when
    nobody joins it (the default); pass ``daemon=True`` for background
    loops whose interruption at end-of-run is expected.
    """

    __slots__ = (
        "sim", "name", "daemon", "_gen", "_factory", "_pending", "_joiners",
        "done", "result", "exception", "_interrupt_pending",
    )

    def __init__(
        self,
        sim: Simulator,
        gen: TaskGen,
        name: str = "task",
        daemon: bool = False,
        factory: Optional[Callable[[], TaskGen]] = None,
    ):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Task needs a generator, got {type(gen).__name__}; "
                "did you forget to call the coroutine function?"
            )
        self.sim = sim
        self.name = name
        self.daemon = daemon
        self._gen = gen
        #: Zero-argument callable that recreates ``gen`` from scratch;
        #: :meth:`__setstate__` calls it, since a generator cannot be
        #: pickled.  Nothing in ``repro`` pickles a task any more; the
        #: pair stays while ``benchmarks/perf/trace.py`` patches
        #: ``Task.__setstate__``.
        self._factory = factory
        self._pending: Optional[Effect] = None
        self._joiners: List[_Waiter] = []
        self.done = False
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._interrupt_pending: Optional[Interrupted] = None
        sim.live_tasks += 1
        sim.defer(self._resume, None)

    def __repr__(self) -> str:
        state = "done" if self.done else ("waiting" if self._pending else "ready")
        return f"<Task {self.name} {state}>"

    # -- pickling (see ``_factory``) ---------------------------------------
    def __getstate__(self) -> dict:
        if not self.done:
            if not inspect.isgenerator(self._gen):
                raise SnapshotError(
                    f"task {self.name!r} wraps a non-generator coroutine "
                    f"({type(self._gen).__name__}); it cannot be snapshot"
                )
            if inspect.getgeneratorstate(self._gen) != "GEN_CREATED":
                raise SnapshotError(
                    f"task {self.name!r} has already started running; only "
                    "unstarted (or finished) tasks can be snapshot — take "
                    "the snapshot before driving the simulator"
                )
            if self._factory is None:
                raise SnapshotError(
                    f"task {self.name!r} was spawned from a bare generator; "
                    "spawn it from a coroutine function (spawn(sim, fn) "
                    "instead of spawn(sim, fn())) so a snapshot can rebuild "
                    "the generator"
                )
        state = {slot: getattr(self, slot) for slot in Task.__slots__}
        # Generators never pickle; the factory stands in for an unstarted
        # one and a finished task's generator is already closed.
        state["_gen"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        if not self.done:
            self._gen = self._factory()

    # -- waiter protocol -------------------------------------------------
    def _resume(self, value: Any) -> None:
        if self.done:
            return
        self._pending = None
        if self._interrupt_pending is not None:
            exc, self._interrupt_pending = self._interrupt_pending, None
            self._step(exc=exc)
        else:
            self._step(value=value)

    def _throw(self, exc: BaseException) -> None:
        if self.done:
            return
        pending, self._pending = self._pending, None
        if pending is not None:
            # An interrupt deferred this throw while a resume was already
            # queued (e.g. a resource grant); the resume ran first and
            # armed a new wait.  Disarm it, or its stale wake-up would
            # later resume the task out of some unrelated wait.
            pending.cancel(self)
        self._step(exc=exc)

    def _sleep_fire(self, effect: "Sleep") -> None:
        # Wakeup target for the inline Sleep(0) path in _step: a merged
        # Sleep._fire + Task._resume with one less call per resume.
        if effect._cancelled or self.done:
            return
        self._pending = None
        if self._interrupt_pending is not None:
            exc, self._interrupt_pending = self._interrupt_pending, None
            self._step(exc=exc)
        else:
            self._step(None)

    # -- execution ---------------------------------------------------------
    def _step(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        try:
            if exc is not None:
                effect = self._gen.throw(exc)
            else:
                effect = self._gen.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
        except Interrupted as interrupted:
            # An uncaught interrupt is a normal way to kill a task.
            self._finish(interrupt=interrupted)
        except BaseException as error:  # noqa: BLE001 - must capture task failure
            self._finish(error=error)
        else:
            # Sleep is by far the most-yielded effect; binding it inline
            # (rather than through Effect.bind) keeps the resume loop to
            # a minimum of Python calls.
            if effect.__class__ is Sleep:
                self._pending = effect
                sim = self.sim
                if effect.delay == 0.0:
                    sim._ready.append(
                        (sim.now, next(sim._seq), None, self._sleep_fire, (effect,))
                    )
                else:
                    effect._handle = sim.schedule(
                        effect.delay, self._resume, None
                    )
                return
            if not isinstance(effect, Effect):
                self._finish(
                    error=TypeError(
                        f"task {self.name!r} yielded {effect!r}, not an Effect"
                    )
                )
                return
            self._pending = effect
            effect.bind(self)

    def _finish(
        self,
        result: Any = None,
        error: Optional[BaseException] = None,
        interrupt: Optional[Interrupted] = None,
    ) -> None:
        self.done = True
        self.sim.live_tasks -= 1
        self._gen.close()
        if interrupt is not None:
            # Dying from an interrupt is not a failure; joiners see the
            # interrupt cause as the result.
            self.result = interrupt.cause
            joiners, self._joiners = self._joiners, []
            for joiner in joiners:
                self.sim.defer(joiner._resume, self.result)
            return
        self.exception = error
        self.result = result
        joiners, self._joiners = self._joiners, []
        if error is not None:
            if joiners:
                for joiner in joiners:
                    self.sim.defer(joiner._throw, TaskFailed(self.name, error))
            elif not self.daemon:
                self.sim.failures.append(error)
        else:
            for joiner in joiners:
                self.sim.defer(joiner._resume, result)

    # -- public API ----------------------------------------------------
    def join(self) -> Effect:
        """Effect that waits for this task to finish and yields its result."""
        return _Join(self)

    def interrupt(self, cause: object = None) -> bool:
        """Throw :class:`Interrupted` into the task at the current instant.

        Returns False if the task had already finished.  If the task is
        mid-step (interrupting itself), the interrupt is delivered at its
        next suspension point.
        """
        if self.done:
            return False
        if self._pending is not None:
            pending, self._pending = self._pending, None
            pending.cancel(self)
            self.sim.defer(self._throw, Interrupted(cause))
        else:
            # Task is currently executing or already queued to resume:
            # flag the interrupt for delivery at the next suspension.
            self._interrupt_pending = Interrupted(cause)
        return True

    def kill(self) -> bool:
        """Interrupt with no cause; the task dies unless it catches it."""
        return self.interrupt(cause=None)

    def abort(self, cause: object = None) -> bool:
        """Terminate the task *without resuming it*.

        Unlike :meth:`interrupt`, the generator never runs again: no
        ``except Interrupted`` handler fires, only ``finally`` blocks
        (via generator close).  This models losing power mid-instruction
        — a crashed host's processes must not execute exit bookkeeping.
        Joiners are resumed with ``cause``, as for an uncaught
        interrupt.  Returns False if the task had already finished.
        """
        if self.done:
            return False
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.cancel(self)
        self._interrupt_pending = None
        self._finish(interrupt=Interrupted(cause))
        return True


def spawn(
    sim: Simulator,
    gen: Any,
    name: str = "task",
    daemon: bool = False,
) -> Task:
    """Create and start a task (sugar for the :class:`Task` constructor).

    ``gen`` is either an already-created generator (the classic form) or
    a zero-argument coroutine *function*, which is called here and kept
    as the task's factory (``Task._factory``).
    """
    factory = None
    if callable(gen) and not hasattr(gen, "send"):
        factory = gen
        gen = gen()
    return Task(sim, gen, name=name, daemon=daemon, factory=factory)


def run_until_complete(sim: Simulator, gen_or_task: Any, name: str = "main") -> Any:
    """Drive the simulator until the given task finishes; return its result.

    Accepts a generator (spawned here) or an existing :class:`Task`.
    Daemon tasks with periodic timers do not stall this, unlike
    ``run_until_idle``.  Raises the task's exception on failure.
    """
    task = gen_or_task
    if not isinstance(task, Task):
        task = spawn(sim, gen_or_task, name=name)
    # The event loop stops right after the event that finishes the task;
    # events queued behind it, even at the same instant, stay pending.
    if not task.done and not sim._dispatch(watch=task):
        raise SimError(
            f"event queue drained before task {task.name!r} completed"
        )
    if task.exception is not None:
        raise task.exception
    return task.result


class _FirstProxy(_Waiter):
    """Child waiter used by :func:`first` to multiplex effects."""

    __slots__ = ("parent", "sim", "index")

    def __init__(self, parent: "_First", index: int):
        self.parent = parent
        self.sim = parent.sim
        self.index = index

    def _resume(self, value: Any) -> None:
        self.parent._child_fired(self.index, value=value)

    def _throw(self, exc: BaseException) -> None:
        self.parent._child_fired(self.index, exc=exc)


class _First(Effect):
    __slots__ = ("effects", "sim", "_waiter", "_proxies", "_settled")

    def __init__(self, effects: List[Effect]):
        if not effects:
            raise ValueError("first() needs at least one effect")
        self.effects = effects
        self.sim: Optional[Simulator] = None
        self._waiter: Optional[_Waiter] = None
        self._proxies: List[_FirstProxy] = []
        self._settled = False

    def bind(self, waiter: _Waiter) -> None:
        self.sim = waiter.sim
        self._waiter = waiter
        self._proxies = [_FirstProxy(self, i) for i in range(len(self.effects))]
        for effect, proxy in zip(self.effects, self._proxies):
            effect.bind(proxy)
            if self._settled:
                break

    def cancel(self, waiter: _Waiter) -> None:
        self._settled = True
        for effect, proxy in zip(self.effects, self._proxies):
            effect.cancel(proxy)

    def _child_fired(
        self, index: int, value: Any = None, exc: Optional[BaseException] = None
    ) -> None:
        if self._settled:
            return
        self._settled = True
        for i, (effect, proxy) in enumerate(zip(self.effects, self._proxies)):
            if i != index:
                effect.cancel(proxy)
        assert self._waiter is not None
        if exc is not None:
            self._waiter._throw(exc)
        else:
            self._waiter._resume((index, value))


def first(*effects: Effect) -> Effect:
    """Wait for whichever effect fires first.

    Resumes with ``(index, value)`` of the winner; the losers are
    cancelled.  The race is settled at most once.
    """
    return _First(list(effects))


class _AllOfProxy(_Waiter):
    def __init__(self, parent: "_AllOf", index: int):
        self.parent = parent
        self.sim = parent.sim
        self.index = index

    def _resume(self, value: Any) -> None:
        self.parent._child_done(self.index, value=value)

    def _throw(self, exc: BaseException) -> None:
        self.parent._child_done(self.index, exc=exc)


class _AllOf(Effect):
    def __init__(self, effects: List[Effect]):
        if not effects:
            raise ValueError("all_of() needs at least one effect")
        self.effects = effects
        self.sim: Optional[Simulator] = None
        self._waiter: Optional[_Waiter] = None
        self._results: List[Any] = [None] * len(effects)
        self._remaining = len(effects)
        self._failed = False
        self._proxies: List[_AllOfProxy] = []

    def bind(self, waiter: _Waiter) -> None:
        self.sim = waiter.sim
        self._waiter = waiter
        self._proxies = [_AllOfProxy(self, i) for i in range(len(self.effects))]
        for effect, proxy in zip(self.effects, self._proxies):
            effect.bind(proxy)

    def cancel(self, waiter: _Waiter) -> None:
        self._failed = True
        for effect, proxy in zip(self.effects, self._proxies):
            effect.cancel(proxy)

    def _child_done(
        self, index: int, value: Any = None, exc: Optional[BaseException] = None
    ) -> None:
        if self._failed:
            return
        if exc is not None:
            self._failed = True
            for i, (effect, proxy) in enumerate(zip(self.effects, self._proxies)):
                if i != index:
                    effect.cancel(proxy)
            assert self._waiter is not None
            self._waiter._throw(exc)
            return
        self._results[index] = value
        self._remaining -= 1
        if self._remaining == 0:
            assert self._waiter is not None
            self._waiter._resume(list(self._results))


def all_of(*effects: Effect) -> Effect:
    """Wait for every effect; resumes with their results in order.

    The first failure cancels the rest and propagates (fail-fast
    gather).  Complements :func:`first`.
    """
    return _AllOf(list(effects))


def with_timeout(effect: Effect, timeout: float) -> TaskGen:
    """``yield from with_timeout(eff, t)`` — result of ``eff`` or TIMED_OUT."""
    index, value = yield first(effect, Sleep(timeout))
    return TIMED_OUT if index == 1 else value
