"""Contended resources: counting semaphores and processor-sharing CPUs."""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from .engine import EventHandle, Simulator
from .tasks import Effect, Sleep, _Waiter

__all__ = ["Resource", "Cpu", "SliceRun"]

#: Fewest quanta a :class:`SliceRun` plans on an uncontended core: two,
#: so that any two quanta a consumer has the core to itself cost fewer
#: events than slicing them one by one.
_MIN_HORIZON = 2


class Resource:
    """A counting semaphore with FIFO queueing.

    ``yield resource.acquire()`` blocks until a unit is free; pair it
    with ``resource.release()`` in a ``try/finally``.  For the common
    hold-for-a-duration pattern use :meth:`hold`.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._queue: Deque[_Waiter] = deque()
        #: Cumulative (units x seconds) of busy time, for utilization metrics.
        self.busy_time = 0.0
        self._last_change = 0.0
        # _Acquire keeps no per-wait state (the waiter itself is the
        # queue entry), so one shared instance serves every acquire.
        self._acquire = _Acquire(self)
        #: The holder's lazily settled time slices, when this resource
        #: is a :class:`Cpu` core in the middle of a :class:`SliceRun`.
        self.run: Optional["SliceRun"] = None

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def acquire(self) -> Effect:
        return self._acquire

    def release(self) -> None:
        self._account()
        if self._queue:
            waiter = self._queue.popleft()
            self.sim.defer(waiter._resume, None)
        else:
            if self.in_use <= 0:
                # double-release is a bug in simulation code, and this
                # path is reachable from RPC handlers (exception-flow):
                # use a programmer-error builtin that crashes loudly
                # rather than punching past `except RpcError`.
                raise ValueError(f"resource {self.name!r} released when free")
            self.in_use -= 1

    def hold(self, duration: float) -> Generator[Effect, None, None]:
        """``yield from resource.hold(dt)`` — acquire, sleep, release."""
        yield self.acquire()
        try:
            yield Sleep(duration)
        finally:
            self.release()

    def utilization(self, now: Optional[float] = None) -> float:
        """Mean fraction of capacity busy since the start of the run."""
        now = self.sim.now if now is None else now
        busy = self.busy_time + self.in_use * (now - self._last_change)
        return busy / (self.capacity * now) if now > 0 else 0.0

    def _account(self) -> None:
        now = self.sim.now
        self.busy_time += self.in_use * (now - self._last_change)
        self._last_change = now


class _Acquire(Effect):
    def __init__(self, resource: Resource):
        self.resource = resource

    def bind(self, waiter: _Waiter) -> None:
        res = self.resource
        if res.in_use < res.capacity and not res._queue:
            res._account()
            res.in_use += 1
            waiter.sim.defer(waiter._resume, None)
        else:
            res._queue.append(waiter)
            run = res.run
            if run is not None:
                run.cut()

    def cancel(self, waiter: _Waiter) -> None:
        try:
            self.resource._queue.remove(waiter)
        except ValueError:
            pass


class Cpu:
    """A round-robin scheduled processor.

    ``yield from cpu.consume(t)`` charges ``t`` seconds of CPU demand;
    with *n* runnable consumers each gets roughly a ``1/n`` share, as on
    a timeslicing uniprocessor.  The quantum bounds both fairness
    granularity and event overhead.
    """

    def __init__(
        self,
        sim: Simulator,
        quantum: float = 0.01,
        speed: float = 1.0,
        name: str = "cpu",
    ):
        if speed <= 0:
            raise ValueError("cpu speed must be positive")
        self.sim = sim
        self.quantum = quantum
        #: Relative speed: demand is divided by this, so a speed-2 CPU
        #: finishes the same work in half the simulated time.
        self.speed = speed
        self.name = name
        #: The single core; public so schedulers with their own slicing
        #: discipline (e.g. interruptible process compute loops) can
        #: contend on it directly.
        self.core = Resource(sim, capacity=1, name=name)
        #: Number of consumers currently inside consume(); the model
        #: kernel samples this for its load average.
        self.runnable = 0
        self.total_demand = 0.0

    def consume(self, demand: float) -> Generator[Effect, None, None]:
        """Charge ``demand`` CPU-seconds, sharing the core fairly."""
        if demand < 0:
            raise ValueError(f"negative CPU demand: {demand}")
        self.sync()  # a slice run's quanta so far precede this charge
        self.total_demand += demand
        remaining = demand / self.speed
        self.runnable += 1
        try:
            while remaining > 1e-12:
                slice_len = min(self.quantum, remaining)
                yield self.core.acquire()
                try:
                    yield Sleep(slice_len)
                finally:
                    self.core.release()
                remaining -= slice_len
        finally:
            self.runnable -= 1

    def sync(self) -> None:
        """Settle the slice run in flight on this core up to now.

        Whoever reads what a :class:`SliceRun` accounts lazily
        (``total_demand``, the core's busy time, the holder's
        ``cpu_time`` and dirty memory) from *outside* the holder's task
        calls this first, and then sees what per-quantum slicing would
        have published at the last quantum boundary at or before now.
        The readers: :meth:`utilization`, :meth:`consume`,
        ``SpriteKernel.ps``, ``CheckpointDaemon.checkpoint_one``,
        ``UsageSimulation.finalize`` and
        ``SpriteCluster.total_cpu_seconds``.
        """
        run = self.core.run
        if run is not None:
            run.settle(self.sim.now)

    def utilization(self) -> float:
        self.sync()
        return self.core.utilization()


class SliceRun(Effect):
    """One consumer's CPU demand, burned in quanta that are settled lazily.

    The consumer acquires ``cpu.core``, sets :attr:`cpu` and yields the
    run; it is woken at a quantum boundary (or when the demand is
    spent), calls :meth:`stop`, releases the core, and repeats while
    :attr:`remaining` is positive.  Between acquire and wake-up it
    sleeps across as many quanta as nobody else wants:

    * any quantum boundary **may** be materialised (the consumer wakes,
      releases and re-acquires, as round-robin slicing does at every
      boundary) and none **needs** to be while the core's queue is empty;
    * boundaries are the floats the per-quantum recurrence
      ``t += min(quantum, remaining / speed)`` produces, replayed
      addition by addition — never ``start + k * quantum``, which
      differs in the last bit — and the wake-up is scheduled at exactly
      that float;
    * :meth:`settle` is the only place slice accounting happens: for
      every boundary passed it replays the recurrence over
      ``remaining``, ``account.cpu_time``, ``cpu.total_demand`` and the
      core's ``busy_time``, and reports the slices to ``on_slices``;
    * a competitor that queues on the core (:meth:`cut`) shortens the
      run to its next boundary, after which the core is shared one
      quantum at a time;
    * **tie rule:** a boundary at exactly ``now`` has already passed
      (``<=``) — for :meth:`settle`, for :meth:`cut` and so for every
      reader behind :meth:`Cpu.sync`.

    How many quanta one wake-up may span (the *horizon*) doubles after
    an undisturbed run, halves after a cut and restarts at two after an
    interrupt or when the core is already contended at acquire, so
    planning and re-planning cost stays proportional to the quanta
    actually run however often the core is disturbed.

    ``account`` is the consumer's ledger: any object with a float
    ``cpu_time`` attribute (a process control block).  ``on_slices(n,
    consumed)``, if given, is told of every ``n`` consecutive slices of
    ``consumed`` CPU-seconds each, in slice order.
    """

    __slots__ = (
        "remaining", "cpu", "eager", "_account", "_on_slices", "_horizon",
        "_boundary", "_wake", "_lazy", "_disturbed", "_handle", "_waiter",
    )

    def __init__(
        self,
        demand: float,
        account: Any,
        on_slices: Optional[Callable[[int, float], None]] = None,
    ):
        #: CPU-seconds of demand not yet accounted.
        self.remaining = demand
        #: The processor to run on; its core is held while the run is
        #: yielded.  Set before each yield (a migrated process moves).
        self.cpu: Optional[Cpu] = None
        #: Set before a yield to be woken at the very next boundary even
        #: on an idle core: the consumer has business at its next safe
        #: point that will not interrupt it (it is pending already).
        self.eager = False
        self._account = account
        self._on_slices = on_slices
        self._horizon = _MIN_HORIZON
        #: The last quantum boundary settled (the run's start at first).
        self._boundary = 0.0
        self._wake = 0.0
        #: True while the wake-up lies beyond the next boundary.
        self._lazy = False
        self._disturbed = False
        self._handle: Optional[EventHandle] = None
        self._waiter: Optional[_Waiter] = None

    def bind(self, waiter: _Waiter) -> None:
        cpu = self.cpu
        core = cpu.core
        sim = cpu.sim
        quantum = cpu.quantum
        speed = cpu.speed
        remaining = self.remaining
        step = remaining / speed
        if not step < quantum:  # min(quantum, step), here as in settle()
            step = quantum
        self._boundary = wake = sim.now
        wake += step
        if core._queue or self.eager:
            # Someone is waiting already and gets the core at the first
            # boundary (plain round-robin), or the consumer wants to be
            # back by then: one quantum, nothing to settle lazily.
            self._horizon = _MIN_HORIZON
        else:
            quanta = 1
            horizon = self._horizon
            remaining -= step * speed
            while quanta < horizon and remaining > 1e-9:
                step = remaining / speed
                if not step < quantum:
                    step = quantum
                wake += step
                remaining -= step * speed
                quanta += 1
            self._lazy = quanta > 1
            self._disturbed = False
            self._waiter = waiter
            core.run = self
        self._wake = wake
        self._handle = sim.schedule_at(wake, waiter._resume, None)

    def cancel(self, waiter: _Waiter) -> None:
        self._lazy = False
        self._disturbed = True
        self._horizon = _MIN_HORIZON
        self._handle.cancel()

    def settle(self, now: float) -> None:
        """Account every quantum boundary at or before ``now``."""
        cpu = self.cpu
        core = cpu.core
        quantum = cpu.quantum
        speed = cpu.speed
        whole = quantum * speed
        on_slices = self._on_slices
        start = boundary = self._boundary
        remaining = self.remaining
        cpu_time = self._account.cpu_time
        demand = cpu.total_demand
        busy = core.busy_time
        slices = 0  # whole quanta passed and not yet reported
        while remaining > 1e-9:
            step = remaining / speed
            if step < quantum:
                # The demand's last, shorter slice.
                nxt = boundary + step
                if nxt > now:
                    break
                consumed = step * speed
                if on_slices is not None:
                    if slices:
                        on_slices(slices, whole)
                        slices = 0
                    on_slices(1, consumed)
            else:
                nxt = boundary + quantum
                if nxt > now:
                    break
                consumed = whole
                slices += 1
            remaining -= consumed
            cpu_time += consumed
            demand += consumed
            busy += nxt - boundary
            boundary = nxt
        if boundary != start:
            if slices and on_slices is not None:
                on_slices(slices, whole)
            self.remaining = remaining
            self._boundary = boundary
            self._account.cpu_time = cpu_time
            cpu.total_demand = demand
            core.busy_time = busy
            core._last_change = boundary

    def cut(self) -> None:
        """A competitor queued on the core: end the run at the next
        quantum boundary."""
        self._disturbed = True
        if not self._lazy:
            return
        self._lazy = False
        cpu = self.cpu
        sim = cpu.sim
        self.settle(sim.now)
        boundary = self._boundary + min(cpu.quantum, self.remaining / cpu.speed)
        if boundary < self._wake:
            self._handle.cancel()
            self._wake = boundary
            self._handle = sim.schedule_at(boundary, self._waiter._resume, None)

    def stop(self, partial: bool = False) -> None:
        """End the run now, before the core is released.

        Settles the quanta passed; with ``partial`` the part of the
        current quantum already burned is charged as well (an
        interrupted consumer that lives on keeps what it computed).
        """
        cpu = self.cpu
        now = cpu.sim.now
        self.settle(now)
        if partial:
            consumed = (now - self._boundary) * cpu.speed
            self.remaining -= consumed
            self._account.cpu_time += consumed
            cpu.total_demand += consumed
            if self._on_slices is not None:
                self._on_slices(1, consumed)
        core = cpu.core
        if core.run is self:
            core.run = None
            if self._disturbed:
                self._horizon = max(_MIN_HORIZON, self._horizon // 2)
            else:
                self._horizon *= 2
