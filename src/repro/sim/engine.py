"""Discrete-event simulation core: the clock and the event queue.

The :class:`Simulator` owns simulated time.  Everything else in the
library — network transfers, kernel scheduling, file-system delays — is
expressed as callbacks scheduled at future instants on one simulator.

Design notes
------------

* Time is a ``float`` in simulated seconds starting at 0.0.
* Events scheduled for the same instant fire in FIFO order (a strictly
  increasing sequence number breaks ties), which keeps runs
  deterministic for a fixed seed.
* Same-instant events (``delay == 0``: task resumptions, channel
  wakeups) bypass the heap entirely and travel through a FIFO *ready
  queue*.  Dispatch merges the two sources by ``(time, seq)``, so the
  global FIFO tie-break is byte-identical to an all-heap engine.
* That merge exists once: :meth:`Simulator._dispatch` is the only code
  that pops either queue and fires a callback.  ``run``,
  ``run_until_idle``, ``step`` and ``tasks.run_until_complete`` are the
  same loop under two stop conditions (a time bound, a watched
  ``done`` flag), and an installed ``profiler`` is one branch at its
  fire site.
* Cancellation is O(1): a cancelled handle stays in its queue but is
  skipped when popped.  Cancelled-event counters keep
  :attr:`Simulator.pending_events` O(1) with no per-dispatch
  bookkeeping, and when more than half the heap is cancelled corpses
  the heap is compacted in place (same ``(time, seq)`` keys, so
  ordering is unaffected) — long runs with heavy timeout churn stay
  bounded in memory.
* :meth:`Simulator.defer` is the allocation-free fast path for wakeups
  that are never cancelled; a fan-out (broadcast delivery, an event's
  many waiters) is one ``defer`` per wake-up, in order.
* A :class:`Ticker` fires periodic callbacks that fall due back to back
  as one event, in the order their own timers would have fired them.

Invariants a future C-accelerated queue must keep are documented in
``docs/architecture.md`` ("Event-loop fast paths").
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple,
)

from .errors import SimulationDeadlock
from .state import StateRegistry

if TYPE_CHECKING:
    from .tasks import Task

__all__ = ["Simulator", "EventHandle", "Ticker"]

#: Compaction is pointless below this heap size; above it, a heap more
#: than half full of cancelled corpses is rebuilt.
_COMPACT_MIN = 64


#: ``until`` of a run with no time bound.
_FOREVER = float("inf")

#: A deadlock report names this many blocked tasks, the oldest first.
_NAMED_BLOCKED = 5


def _noop(*_args: Any) -> None:
    pass


class _AlwaysDone:
    """A ``watch`` that is done after any event: :meth:`Simulator.step`."""

    __slots__ = ()
    done = True


_ONE_EVENT = _AlwaysDone()


class EventHandle:
    """A cancellable reference to one scheduled callback.

    ``sim`` doubles as the liveness marker: it is dropped when the event
    fires or is cancelled, so a late :meth:`cancel` after the callback
    ran never corrupts the simulator's event accounting.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., None],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references eagerly so cancelled closures don't pin objects
        # for the rest of the run.
        self.fn = _noop
        self.args = ()
        sim = self.sim
        if sim is not None:
            # Count the corpse; compact when the heap is mostly dead.
            self.sim = None
            sim._heap_cancelled += 1
            if sim._heap_cancelled * 2 > len(sim._heap) >= _COMPACT_MIN:
                sim._compact()


class _ReadyHandle(EventHandle):
    """Handle for a same-instant event parked on the ready queue."""

    __slots__ = ()

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = _noop
        self.args = ()
        sim = self.sim
        if sim is not None:
            self.sim = None
            sim._ready_cancelled += 1


class Simulator:
    """An event-driven clock.

    Typical use goes through :class:`repro.sim.tasks.Task` coroutines
    rather than raw callbacks, but the callback layer is public for the
    rare component (e.g. the load-average sampler) that wants it.
    """

    __slots__ = (
        "now",
        "_heap",
        "_ready",
        "_seq",
        "_running",
        "_heap_cancelled",
        "_ready_cancelled",
        "events_fired",
        "heap_compactions",
        "failures",
        "_tasks",
        "state",
        "profiler",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        #: Same-instant FIFO: entries are ``(time, seq, handle, fn, args)``
        #: with ``handle is None`` for the uncancellable ``defer`` path.
        self._ready: Deque[Tuple[float, int, Optional[EventHandle],
                                 Callable[..., None], Tuple[Any, ...]]] = deque()
        self._seq = itertools.count()
        self._running = False
        #: Cancelled-but-unpopped corpses per queue; queue length minus
        #: corpses is the live-event count (so scheduling and dispatch
        #: never touch a counter — only cancellation does).
        self._heap_cancelled = 0
        self._ready_cancelled = 0
        #: Total events dispatched; the benchmark harness reads this.
        self.events_fired = 0
        #: Times the heap was rebuilt to shed cancelled corpses.
        self.heap_compactions = 0
        #: Exceptions raised by detached tasks; populated by tasks.py and
        #: re-raised by :meth:`run` so failures never pass silently.
        #: Mutated in place (never rebound): the event loop aliases it.
        self.failures: List[BaseException] = []
        #: Every unfinished task, in spawn order: a ``Task`` joins in its
        #: constructor and leaves when it finishes.  Holding them means a
        #: task parked on a wake-up that never comes is never cyclic
        #: garbage, so no collection closes its generator (running its
        #: ``finally`` blocks) at whatever instant it happens to fall.
        self._tasks: Dict["Task", None] = {}
        #: Run-scoped mutable state (id allocators etc.); see
        #: :mod:`repro.sim.state`.
        self.state = StateRegistry()
        #: Optional hot-spot profiler (:class:`repro.obs.profile.
        #: EngineProfiler`).  ``None`` by default; the event loop reads
        #: it once per entry and tests the local at the fire site, so an
        #: unprofiled run pays one branch per event — the same cost
        #: model as the trace/span guards.
        self.profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if delay == 0.0:
            now = self.now
            handle = _ReadyHandle(now, fn, args, self)
            self._ready.append((now, next(self._seq), handle, fn, args))
            return handle
        time = self.now + delay
        handle = EventHandle(time, fn, args, self)
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        return handle

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at exactly the absolute simulated ``time``.

        The event is keyed on ``time`` itself, never on
        ``now + (time - now)``: callers that replay a float recurrence
        (lazy time-slicing) depend on the wake-up landing on the very
        float the recurrence produced.
        """
        now = self.now
        if time <= now:
            if time < now:
                raise ValueError(
                    f"cannot schedule into the past (time={time}, now={now})"
                )
            return self.call_soon(fn, *args)
        handle = EventHandle(time, fn, args, self)
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        return handle

    def call_soon(self, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at the current instant, after pending events."""
        now = self.now
        handle = _ReadyHandle(now, fn, args, self)
        self._ready.append((now, next(self._seq), handle, fn, args))
        return handle

    def defer(self, fn: Callable[..., None], *args: Any) -> None:
        """Like :meth:`call_soon` but with no handle: not cancellable.

        The hot path for task resumptions and channel/resource wakeups,
        which are guarded by their own state machines (``Task.done``,
        settled flags) and never cancel the scheduled callback itself.
        """
        self._ready.append((self.now, next(self._seq), None, fn, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, until: float = _FOREVER, watch: Any = None) -> bool:
        """The event loop: the only code that pops a queue and fires.

        Merges the ready queue and the heap by ``(time, seq)``, discards
        cancelled corpses as they surface and fires live events in
        order.  It stops — returning ``True`` — right after the event
        that leaves ``watch.done`` true (``watch`` may be ``None``), and
        returns ``False`` when the next live event lies beyond ``until``
        or both queues are empty.  Every public driver is this loop
        under a different stop condition.

        ``events_fired`` is brought up to date before each profiled
        dispatch and whenever the loop is left, by return or exception.
        """
        if self._running:
            raise RuntimeError("Simulator event loop is not reentrant")
        if until < self.now:
            return False            # nothing queued predates ``now``
        self._running = True
        fired = 0
        try:
            ready = self._ready
            heap = self._heap
            heappop = heapq.heappop
            failures = self.failures
            profiler = self.profiler
            while True:
                # ``seq`` is unique across both queues, so comparing the
                # entries as tuples is decided by ``(time, seq)``.
                if heap and (not ready or heap[0] < ready[0]):
                    entry = heap[0]
                    handle = entry[2]
                    if handle.cancelled:
                        heappop(heap)
                        self._heap_cancelled -= 1
                        continue
                    if entry[0] > until:
                        return False
                    heappop(heap)
                    handle.sim = None
                    fn = handle.fn
                    args = handle.args
                elif ready:
                    # No bound check: a ready entry carries the ``now`` it
                    # was queued at, and ``now`` never passes ``until``.
                    entry = ready.popleft()
                    handle = entry[2]
                    if handle is not None:
                        if handle.cancelled:
                            self._ready_cancelled -= 1
                            continue
                        handle.sim = None
                    fn = entry[3]
                    args = entry[4]
                else:
                    return False
                self.now = entry[0]
                fired += 1
                if profiler is None:
                    fn(*args)
                else:
                    self.events_fired += fired
                    fired = 0
                    profiler.dispatch(fn, args)
                if failures:
                    self._raise_failure()
                if watch is not None and watch.done:
                    return True
        finally:
            self.events_fired += fired
            self._running = False

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue, optionally stopping at time ``until``.

        Returns the simulated time at which the run stopped.  Raises
        :class:`SimulationDeadlock` if the queue drains entirely when no
        ``until`` was given and tasks are still blocked.
        """
        if until is None:
            self._dispatch()
            blocked = self._tasks
            if blocked:
                names = ", ".join(
                    task.name for task in itertools.islice(blocked, _NAMED_BLOCKED)
                )
                more = len(blocked) - _NAMED_BLOCKED
                raise SimulationDeadlock(
                    f"event queue drained with {len(blocked)} task(s) still "
                    f"blocked: {names}" + (f" and {more} more" if more > 0 else "")
                )
        else:
            self._dispatch(until)
            self.now = max(self.now, until)
        return self.now

    def run_until_idle(self) -> float:
        """Drain the queue without treating blocked tasks as an error.

        Useful for driving open-ended server simulations where daemons
        legitimately block forever waiting for requests.
        """
        self._dispatch()
        return self.now

    def step(self) -> bool:
        """Fire the next event.  Returns False when the queue is empty."""
        return self._dispatch(watch=_ONE_EVENT)

    def _raise_failure(self) -> None:
        failure = self.failures[0]
        del self.failures[:]
        raise failure

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def live_tasks(self) -> int:
        """Number of unfinished tasks: the task registry's length."""
        return len(self._tasks)

    def _compact(self) -> None:
        """Rebuild the heap without cancelled corpses.

        The surviving entries keep their ``(time, seq)`` keys, so the
        dispatch order is exactly what it would have been lazily.  The
        list is mutated in place — the event loop holds an alias to it.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._heap_cancelled = 0
        self.heap_compactions += 1

    @property
    def pending_events(self) -> int:
        """Number of uncancelled events still queued (O(1))."""
        return (len(self._heap) - self._heap_cancelled
                + len(self._ready) - self._ready_cancelled)


class Ticker:
    """Periodic callbacks that fall due together, fired as one event.

    Each member is a zero-argument callable fired every ``period``
    seconds; a member that returns true leaves.  A member's re-arm
    takes the sequence number its own ``schedule(period, fn)`` would
    have taken after it ran, and members whose numbers follow one
    another — nothing was queued between their re-arms — share one
    event at the first one's ``(time, seq)``.  Firing them as one event
    is therefore exact: a member that stays and schedules nothing (a
    load sample, a poll with nothing to do) joins the run before it,
    and one that schedules something starts a new run behind what it
    scheduled, where its own timer would have been.
    """

    __slots__ = ("sim", "period", "_run", "_run_time", "_run_seq", "_last")

    def __init__(self, sim: Simulator, period: float):
        if period <= 0:
            raise ValueError(f"ticker period must be positive (got {period})")
        self.sim = sim
        self.period = period
        #: The run armed last: its members, instant and event ``seq``,
        #: and the sequence number its last member took.
        self._run: Optional[List[Callable[[], Any]]] = None
        self._run_time = 0.0
        self._run_seq = -1
        self._last = -1

    def start(self, members: Iterable[Callable[[], Any]]) -> None:
        """Fire ``members``, in order, one period from now and every
        period after (as many ``schedule(period, fn)`` calls would)."""
        time = self.sim.now + self.period
        for fn in members:
            self._add(fn, time, next(self.sim._seq))

    def join(self, fn: Callable[[], Any], period: float) -> bool:
        """Make ``fn`` a member if that fires it exactly where
        ``schedule(period, fn)`` now would: at the instant of the run
        armed last, with nothing else queued for that instant behind it.
        Returns whether it joined; if not, the caller arms its own timer.
        The check scans the heap once, so join at set-up, not per event."""
        sim = self.sim
        time = sim.now + period
        if period != self.period or self._run is None or time != self._run_time:
            return False
        seq = self._run_seq
        for entry in sim._heap:
            if entry[0] == time and entry[1] > seq and not entry[2].cancelled:
                return False
        self._run.append(fn)
        self._last = next(sim._seq)
        return True

    def _add(
        self, fn: Callable[[], Any], time: float, seq: int
    ) -> List[Callable[[], Any]]:
        """Re-arm ``fn`` at ``(time, seq)``: in the run armed last if
        ``seq`` follows its last member's, else in a new run.  Returns
        the run."""
        run = self._run
        if run is None or seq != self._last + 1 or time != self._run_time:
            run = []
            sim = self.sim
            heapq.heappush(
                sim._heap, (time, seq, EventHandle(time, self._fire, (run,), sim))
            )
            self._run = run
            self._run_time = time
            self._run_seq = seq
        run.append(fn)
        self._last = seq
        return run

    def _fire(self, members: List[Callable[[], Any]]) -> None:
        # A member re-armed here joins ``run`` inline if its number
        # follows the one the member before it took: nothing, the
        # ticker's own state included, changes without taking one.
        sim = self.sim
        time = sim.now + self.period
        seq = sim._seq
        run: List[Callable[[], Any]] = []
        follows = -1
        for fn in members:
            if fn():
                continue
            taken = next(seq)
            if taken == follows:
                run.append(fn)
                self._last = taken
            else:
                run = self._add(fn, time, taken)
            follows = taken + 1
