"""Contended resources: counting semaphores and processor-sharing CPUs."""

from __future__ import annotations

from collections import deque
from math import ulp
from typing import Any, Callable, Deque, Generator, List, Optional

from .engine import EventHandle, Simulator
from .tasks import Effect, _Waiter

__all__ = ["Resource", "Cpu", "SliceRun"]

#: Fewest quantum boundaries one wake-up of a core spans: two, so that
#: any two quanta at which no task has business cost fewer events than
#: slicing them one by one.
_MIN_HORIZON = 2
#: Fewest quanta a core replays as whole rounds in one step rather than
#: one by one: about where the jump's fixed cost (a few ``_repeat_add``
#: calls per run) meets the per-quantum loop's.
_JUMP_QUANTA = 64


def _repeat_add(x: float, c: float, n: int, tally: Optional[float] = None):
    """What ``n`` sequential ``x += c`` leave in ``x``, bit for bit.

    Given a ``tally``, returns ``(x, tally)`` instead, the tally being
    what ``tally += new_x - old_x`` after each addition leaves in it
    (a core's busy time over its boundaries).

    Inside one binade of ``x`` (between consecutive powers of two, where
    the float spacing is one ulp ``u``) every ``x + c`` rounds ``c`` to
    the same multiple ``r`` of ``u`` — unless ``c`` is an odd multiple of
    ``u / 2``, whose ties round by the parity of ``x`` — so ``m``
    additions that stay inside the binade are the single exact
    ``x + m * r``.  Additions that cross a binade edge, and those in the
    one binade per addend where it is a tie, are done one at a time.
    For an addend whose lowest set bit is ``2**b`` that tie binade is
    ``[2**(b+53), 2**(b+54))``: for a quantum of 0.01 it is
    ``[1/64, 1/32)``, just above the addend, and a boundary crosses it
    in a couple of additions.  The cost is O(1) per binade ``x`` passes
    through.
    """
    while n > 0:
        m = 0
        if abs(c) < abs(x):
            unit = ulp(x)
            k = c / unit
            step = round(k)  # r = step * unit
            if abs(k - step) != 0.5:  # not the tie binade
                units = abs(x) / unit  # a whole number in [2**52, 2**53)
                out = step if x > 0.0 else -step  # ulps away from zero
                # Keep every sum a whole ulp inside the binade, so each
                # is rounded on this binade's grid.
                if out > 0:
                    m = int((2 ** 53 - 1 - units) // out)
                elif out < 0:
                    m = int((units - 2 ** 52 - 1) // -out)
                elif units > 2 ** 52:
                    m = n
                if m > n:
                    m = n
        if m > 0:
            r = step * unit
            x += m * r  # exact: a multiple of unit inside the binade
            if tally is not None:
                tally = _repeat_add(tally, r, m)
            n -= m
        else:
            nxt = x + c
            if tally is not None:
                tally += nxt - x
            x = nxt
            n -= 1
    return x if tally is None else (x, tally)


class Resource:
    """A counting semaphore with FIFO queueing, held for known lengths.

    ``yield resource.hold(dt)`` waits for a unit, keeps it for ``dt``
    seconds and gives it back.  A grant is not an event: the hold's one
    timed wake-up is armed at the instant the unit becomes the holder's
    — in ``bind`` when one is free, in the previous holder's
    :meth:`release` when it is handed over — and that same event gives
    the unit back and resumes the task.

    Ties.  An interrupted or aborted holder gives the unit back at the
    instant of ``interrupt()`` / ``abort()``, not at the throw event
    that follows in the same instant.  A hold's wake-up takes its
    sequence number at the grant, so it sorts ahead of any other timer
    armed later in that instant for the bit-identical float.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._queue: Deque[Any] = deque()
        #: Cumulative (units x seconds) of busy time, for utilization metrics.
        self.busy_time = 0.0
        self._last_change = 0.0

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def hold(self, duration: float) -> Effect:
        """``yield resource.hold(dt)`` — acquire, keep for ``dt``, release."""
        return _Hold(self, duration)

    def release(self) -> None:
        """Give a unit back; the head of the queue, if any, has it from
        this instant.  Called by a hold when its time is up or it is
        cancelled."""
        self._account()
        if self._queue:
            head = self._queue.popleft()
            head._handle = self.sim.schedule(head.duration, self._expire, head)
        else:
            if self.in_use <= 0:
                # double-release is a bug in simulation code, and this
                # path is reachable from RPC handlers (exception-flow):
                # use a programmer-error builtin that crashes loudly
                # rather than punching past `except RpcError`.
                raise ValueError(f"resource {self.name!r} released when free")
            self.in_use -= 1

    def _expire(self, hold: "_Hold") -> None:
        """``hold``'s time is up: give the unit back, resume its task."""
        hold._handle = None
        self.release()
        hold._waiter._resume(None)

    def _withdraw(self, hold: "_Hold") -> None:
        """``hold``'s task was interrupted or aborted: out of the queue,
        or — if it held a unit — give it back as of now."""
        handle = hold._handle
        if handle is None:
            self._queue.remove(hold)
        else:
            hold._handle = None
            handle.cancel()
            self.release()

    def utilization(self) -> float:
        """Mean fraction of capacity busy since the start of the run."""
        now = self.sim.now
        busy = self.busy_time + self.in_use * (now - self._last_change)
        return busy / (self.capacity * now) if now > 0 else 0.0

    def _account(self) -> None:
        now = self.sim.now
        self.busy_time += self.in_use * (now - self._last_change)
        self._last_change = now


class _Hold(Effect):
    """``resource.hold(dt)``; the queue entry while it waits, the
    wake-up's target while it holds (``_handle`` is set)."""

    __slots__ = ("resource", "duration", "_waiter", "_handle")

    def __init__(self, resource: Resource, duration: float):
        if duration < 0:
            raise ValueError(f"negative hold: {duration}")
        self.resource = resource
        self.duration = duration
        self._waiter: Optional[_Waiter] = None
        self._handle: Optional[EventHandle] = None

    def bind(self, waiter: _Waiter) -> None:
        res = self.resource
        self._waiter = waiter
        if res.in_use < res.capacity and not res._queue:
            res._account()
            res.in_use += 1
            self._handle = res.sim.schedule(self.duration, res._expire, self)
        else:
            res._queue.append(self)

    def cancel(self, waiter: _Waiter) -> None:
        self.resource._withdraw(self)


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
        #: discipline can contend on it directly (``hold``).  Long compute
        #: stretches queue on it as :class:`SliceRun` effects and are
        #: replayed, not dispatched.
        self.core = _Core(self, name)
        #: Number of consumers currently inside consume(); the model
        #: kernel samples this for its load average.
        self.runnable = 0
        self.total_demand = 0.0

    def consume(self, demand: float) -> Generator[Effect, None, None]:
        """Charge ``demand`` CPU-seconds, sharing the core fairly."""
        if demand < 0:
            raise ValueError(f"negative CPU demand: {demand}")
        self.sync()  # the rotation's quanta so far precede this charge
        self.total_demand += demand
        remaining = demand / self.speed
        self.runnable += 1
        try:
            core = self.core
            while remaining > 1e-12:
                slice_len = min(self.quantum, remaining)
                yield _CoreHold(core, slice_len)
                remaining -= slice_len
        finally:
            self.runnable -= 1

    def sync(self) -> None:
        """Settle the core's rotation of slice runs up to now.

        Whoever reads what the rotation accounts lazily
        (``total_demand``, the core's busy time, any run's ``cpu_time``
        and dirty memory, who holds the core) from *outside* the core
        calls this first, and then sees what per-quantum slicing would
        have published at the last quantum boundary at or before now —
        a boundary at exactly now has passed.  Everything that edits
        the core's queue settles by itself before it does; the readers
        are :meth:`utilization`, :meth:`consume`, ``SpriteKernel.ps``,
        ``CheckpointService.checkpoint_one``, ``UsageSimulation.finalize``
        and ``SpriteCluster.total_cpu_seconds``.
        """
        core = self.core
        if core.run is not None:
            core.settle(self.sim.now)

    def utilization(self) -> float:
        self.sync()
        return self.core.utilization()


class SliceRun(Effect):
    """One consumer's CPU demand, burned in round-robin quanta on
    ``cpu.core`` that are replayed rather than dispatched.

    The consumer sets :attr:`cpu` (and :attr:`eager`) and yields the
    run — that is all: the run queues for the core behind whoever is
    there, holds it one quantum at a time in FIFO rotation with the
    other runs and with foreign holds (``Cpu.consume``, a plain
    ``core.hold``), and the consumer is resumed when :attr:`remaining` is
    spent, or at the end of its first quantum if it was ``eager``.
    While ``remaining`` is positive it yields the run again (a migrated
    process sets another ``cpu`` first).  Nothing is dispatched for a
    quantum boundary at which no task has anything to do; see
    :class:`_Core` for the replay, its invariant and the tie rule.

    An interrupt or abort takes the run out of the rotation at that
    instant.  If it held the core, the part of the quantum it had burned
    is remembered, and a consumer that lives on claims it with
    :meth:`charge_partial`; a run that was still waiting for the core
    consumed nothing.

    ``account`` is the consumer's ledger: any object with a float
    ``cpu_time`` attribute (a process control block).  ``on_slices(n,
    consumed)``, if given, is told of every ``n`` consecutive slices of
    ``consumed`` CPU-seconds each, in slice order.
    """

    __slots__ = (
        "remaining", "cpu", "eager", "_account", "_on_slices", "_slices",
        "_partial", "_waiter",
    )

    def __init__(
        self,
        demand: float,
        account: Any,
        on_slices: Optional[Callable[[int, float], None]] = None,
    ):
        #: CPU-seconds of demand not yet accounted.
        self.remaining = demand
        #: The processor to run on.  Set before each yield (a migrated
        #: process moves).
        self.cpu: Optional[Cpu] = None
        #: Set before a yield to be resumed at the end of the run's
        #: first quantum whatever remains: the consumer has business at
        #: its next safe point that will not interrupt it (it is pending
        #: already).
        self.eager = False
        self._account = account
        self._on_slices = on_slices
        #: Whole quanta settled and not yet reported to ``on_slices``.
        self._slices = 0
        self._partial = 0.0
        self._waiter: Optional[_Waiter] = None

    def bind(self, waiter: _Waiter) -> None:
        self._waiter = waiter
        self._partial = 0.0
        self.cpu.core._enter(self)

    def cancel(self, waiter: _Waiter) -> None:
        self.cpu.core._leave(self)

    def charge_partial(self) -> None:
        """Charge what an interrupt cut short: the part of its current
        quantum the run had burned as the core's holder (an interrupted
        consumer that lives on keeps what it computed)."""
        consumed = self._partial
        if consumed > 0.0:
            self._partial = 0.0
            self.remaining -= consumed
            self._account.cpu_time += consumed
            self.cpu.total_demand += consumed
            if self._on_slices is not None:
                self._on_slices(1, consumed)


class _Core(Resource):
    """A :class:`Cpu`'s core: a FIFO shared by slice runs and foreign
    waiters, whose round-robin rotation is replayed, not dispatched.

    The model is per-quantum slicing: the holder burns
    ``min(quantum, remaining / speed)``, gives the core to the head of
    the queue and goes to its tail.  As long as that hand-over is
    between two :class:`SliceRun` entries no task has anything to do at
    the boundary, and its time and every number it publishes are fixed
    in advance, so:

    * **invariant:** any boundary *may* be materialised as an event and
      none *needs* to be unless a task must run there — a run's demand
      is spent, a run is ``eager``, or a foreign hold reaches the head
      of the queue.  The core arms **one** wake-up (:meth:`_plan`), at
      the first such boundary or at most :attr:`_horizon` boundaries
      ahead, whichever comes first;
    * :meth:`settle` is the only place slice accounting happens.  It
      replays the boundaries at or before ``now`` in rotation order with
      the floats of the recurrence per-quantum slicing runs
      (``t += min(quantum, remaining / speed)``, addition by addition —
      never ``start + k * quantum``, which differs in the last bit) and
      the same additions into each ``account.cpu_time``,
      ``cpu.total_demand`` and :attr:`busy_time`, and reports every
      run's slices to its ``on_slices``;
    * **whole rounds:** in a *closed* rotation (no eager run, no foreign
      hold queued; a lone run is a rotation of one) :meth:`settle` and
      :meth:`_plan` replay whole rounds that certainly end at or before
      ``now`` (inside the horizon) in one step when there are at least
      ``_JUMP_QUANTA`` quanta of them, and leave every run more than two
      whole quanta above ``ample``: :func:`_repeat_add` gives each sum
      exactly the float the additions one by one give.  A whole round
      is a whole quantum, the same ``whole``, for every run in turn, so
      after it each run is back in its place in the queue, and how the
      round's additions interleave between runs changes no sum.  The
      per-quantum loop still replays the last round or two, and stays
      the only code that compares with ``now``, ``ample`` and ``1e-9``;
    * whatever edits the queue settles first and re-plans after: a new
      run or foreign hold appends at the tail, an interrupted run
      leaves, a foreign holder releases.  Readers settle through
      :meth:`Cpu.sync`;
    * **tie rule:** a boundary at exactly ``now`` has already passed
      (``<=``), for every settle and so for every edit and reader.  A
      foreign hold that reaches the head at a boundary has the core from
      that boundary: whoever settles it arms the hold's wake-up there
      and then (a grant is not an event; :class:`Resource` has the tie
      rules that follow from it).

    The horizon doubles when a wake-up it bounded fires as planned and
    halves when an edit makes the core plan again before its wake-up
    fired, so an undisturbed stretch of ``n`` quanta costs about
    ``log2(n)`` wake-ups.  Each plan or settle costs at most one round
    jump, two :func:`_repeat_add` calls per run (O(1) per binade
    crossed), plus the quanta too few to jump replayed one by one — not
    the quanta themselves.  The horizon belongs to the core, not to
    a run: a process that computes in many short stretches does not
    start from two each time.
    """

    def __init__(self, cpu: Cpu, name: str):
        super().__init__(cpu.sim, capacity=1, name=name)
        self.cpu = cpu
        #: The run holding the core, its current quantum having begun at
        #: ``_last_change``; ``None`` when the core is idle or a foreign
        #: holder has it.  Queued runs sit in ``_queue`` with the foreign
        #: waiters.
        self.run: Optional[SliceRun] = None
        #: Runs settled out of the rotation whose consumer the wake-up,
        #: due at this instant, has still to resume.
        self._due: Deque[SliceRun] = deque()
        self._horizon = _MIN_HORIZON
        #: Boundaries the armed wake-up spans.
        self._planned = 0
        self._handle: Optional[EventHandle] = None
        #: True while the wake-up resumes consumers: their edits are
        #: planned for once, after the last of them.
        self._firing = False

    def hold(self, duration: float) -> Effect:
        return _CoreHold(self, duration)

    def release(self) -> None:
        if self.run is not None or self.in_use <= 0:
            raise ValueError(f"core {self.name!r} released by a non-holder")
        self._account()
        if self._queue:
            self._hand_over()
            if self.run is not None:
                self._replan()
        else:
            self.in_use = 0  # every lone Cpu.consume slice ends here

    def _withdraw(self, hold: "_Hold") -> None:
        if self.run is None:
            super()._withdraw(hold)  # the holder, or behind a foreign one
            return
        self.settle(self.sim.now)
        if hold._handle is not None:
            super()._withdraw(hold)  # a boundary at now gave it the core
        else:
            self._queue.remove(hold)
            self._replan()

    def settle(self, now: float) -> None:
        """Replay every quantum boundary at or before ``now``."""
        run = self.run
        if run is None:
            return
        cpu = self.cpu
        quantum = cpu.quantum
        speed = cpu.speed
        boundary = self._last_change
        remaining = run.remaining
        step = remaining / speed
        if boundary + (step if step < quantum else quantum) > now:
            return
        whole = quantum * speed
        ample = 2.0 * whole  # demand for a whole quantum, without dividing
        queue = self._queue
        demand = cpu.total_demand
        busy = self.busy_time
        touched: List[SliceRun] = []  # runs with whole quanta to report
        if now - boundary > _JUMP_QUANTA * quantum and not run.eager:
            # Whole rounds of a closed rotation (no eager run, no foreign
            # hold) in one step, ending a round or more before now and
            # leaving every run more than two whole quanta above ample;
            # the loop below replays the boundaries that are left.
            # ``x * 2 ** -53`` bounds the rounding of one addition near x.
            rotation = [run]
            for entry in queue:
                if entry.__class__ is not SliceRun or entry.eager:
                    break
                rotation.append(entry)
            else:
                size = len(rotation)
                rounds = int((now - boundary)
                             / (size * (quantum + now * 2.0 ** -53))) - 1
                for entry in rotation:
                    rem = entry.remaining
                    rounds = min(rounds, int(
                        (rem - ample) / (whole + rem * 2.0 ** -53)) - 2)
                if rounds * size >= _JUMP_QUANTA:
                    quanta = rounds * size
                    boundary, busy = _repeat_add(
                        boundary, quantum, quanta, busy
                    )
                    demand = _repeat_add(demand, whole, quanta)
                    for entry in rotation:
                        entry.remaining = _repeat_add(
                            entry.remaining, -whole, rounds
                        )
                        account = entry._account
                        account.cpu_time = _repeat_add(
                            account.cpu_time, whole, rounds
                        )
                        if entry._on_slices is not None:
                            if not entry._slices:
                                touched.append(entry)
                            entry._slices += rounds
                    remaining = run.remaining
        while True:
            # The holder's state lives in locals for as many quanta in a
            # row as it has the core (more than one only when it is the
            # whole rotation) and is stored when the core changes hands.
            account = run._account
            cpu_time = account.cpu_time
            eager = run.eager
            shared = eager or bool(queue)  # one quantum, then the next
            slices = 0  # whole quanta of this turn, not yet reported
            passed = True  # the turn ends at a boundary at or before now
            while True:
                if remaining > ample or not remaining / speed < quantum:
                    nxt = boundary + quantum
                    if nxt > now:
                        passed = False
                        break
                    consumed = whole
                    slices += 1
                else:
                    # The demand's last, shorter slice.
                    step = remaining / speed
                    nxt = boundary + step
                    if nxt > now:
                        passed = False
                        break
                    consumed = step * speed
                    if run._on_slices is not None:
                        if run._slices or slices:
                            run._on_slices(run._slices + slices, whole)
                            run._slices = slices = 0
                        run._on_slices(1, consumed)
                remaining -= consumed
                cpu_time += consumed
                demand += consumed
                busy += nxt - boundary
                boundary = nxt
                if shared or not remaining > 1e-9:
                    break
            run.remaining = remaining
            account.cpu_time = cpu_time
            if slices and run._on_slices is not None:
                if not run._slices:
                    touched.append(run)
                run._slices += slices
            if not passed:
                break
            if remaining > 1e-9 and not eager:
                queue.append(run)
            else:
                self._due.append(run)
                if not queue:
                    run = None
                    self.in_use = 0
                    break
            run = queue.popleft()
            if run.__class__ is not SliceRun:
                # A foreign hold has the core from this boundary (the
                # instant the wake-up was armed for, so now) for its
                # duration.
                run._handle = self.sim.schedule(
                    run.duration, self._expire, run
                )
                run = None
                break
            remaining = run.remaining
        self.run = run
        cpu.total_demand = demand
        self.busy_time = busy
        self._last_change = boundary
        for run in touched:
            if run._slices:
                run._on_slices(run._slices, whole)
                run._slices = 0

    # -- edits: settle, change the queue, plan again ---------------------
    def _enter(self, run: SliceRun) -> None:
        """``run`` was yielded: it queues for the core at the tail."""
        if self.run is not None:
            self.settle(self.sim.now)
        if self.in_use < 1 and not self._queue:
            self._account()
            self.in_use = 1
            self.run = run
        else:
            self._queue.append(run)
            if self.run is None:
                return  # behind a foreign holder: its release plans
        self._replan()

    def _leave(self, run: SliceRun) -> None:
        """``run`` was interrupted or aborted: out of the rotation."""
        self.settle(self.sim.now)
        if run is self.run:
            run._partial = (self.sim.now - self._last_change) * self.cpu.speed
            self._account()
            self._hand_over()
        elif run in self._due:
            # Spent at this very instant and not resumed yet.
            self._due.remove(run)
        else:
            self._queue.remove(run)
        self._replan()

    def _hand_over(self) -> None:
        """Give the core, as of now, to the head of the queue."""
        self.run = None
        if not self._queue:
            self.in_use -= 1
            return
        head = self._queue.popleft()
        if head.__class__ is SliceRun:
            self.run = head
        else:
            head._handle = self.sim.schedule(
                head.duration, self._expire, head
            )

    def _replan(self) -> None:
        if self._firing:
            return
        handle = self._handle
        if handle is not None:
            handle.cancel()
            self._horizon = max(_MIN_HORIZON, self._horizon // 2)
        self._plan()

    def _plan(self) -> None:
        """Arm the wake-up: at the first boundary where a task must run,
        at most ``_horizon`` boundaries ahead.  The core is settled."""
        self._handle = None
        sim = self.sim
        if self._due:
            # Settled by a reader at the very instant of the wake-up.
            self._planned = 0
            self._handle = sim.call_soon(self._fire)
            return
        run = self.run
        if run is None:
            return
        # The runs whose turns are certain, in rotation order: up to a
        # foreign hold (the boundary that gives it the core is real)
        # or an eager run (the end of its first quantum is).  ``closed``
        # when neither is there and the rotation goes round.
        rems = [run.remaining]
        closed = not run.eager
        if closed:
            for entry in self._queue:
                if entry.__class__ is not SliceRun:
                    closed = False
                    break
                rems.append(entry.remaining)
                if entry.eager:
                    closed = False
                    break
        cpu = self.cpu
        quantum = cpu.quantum
        speed = cpu.speed
        whole = quantum * speed
        ample = 2.0 * whole
        horizon = self._horizon
        wake = self._last_change
        last = len(rems) - 1
        lone = closed and not last  # the holder is the whole rotation
        planned = 0
        if closed and horizon >= _JUMP_QUANTA:
            # Whole rounds in one step, as in settle().
            rounds = horizon // len(rems)
            for rem in rems:
                rounds = min(rounds, int(
                    (rem - ample) / (whole + rem * 2.0 ** -53)) - 2)
            if rounds * len(rems) >= _JUMP_QUANTA:
                planned = rounds * len(rems)
                wake = _repeat_add(wake, quantum, planned)
                rems = [_repeat_add(rem, -whole, rounds) for rem in rems]
        remaining = rems[0]
        turn = 0
        while planned < horizon:
            planned += 1
            # min(quantum, remaining / speed), here as in settle()
            if remaining > ample or not remaining / speed < quantum:
                wake += quantum
                remaining -= whole
            else:
                step = remaining / speed
                wake += step
                remaining -= step * speed
            if not remaining > 1e-9:
                break  # this run's demand is spent at ``wake``
            if lone:
                continue
            rems[turn] = remaining
            if turn < last:
                turn += 1
            elif closed:
                turn = 0
            else:
                break
            remaining = rems[turn]
        self._planned = planned
        self._handle = sim.schedule_at(wake, self._fire)

    def _fire(self) -> None:
        """The wake-up: settle, resume who has business now, plan on."""
        self._handle = None
        if self._planned >= self._horizon:
            self._horizon *= 2  # it was the horizon that ended the plan
        self._firing = True
        self.settle(self.sim.now)
        due = self._due
        while due:
            due.popleft()._waiter._resume(None)
        self._firing = False
        self._plan()


class _CoreHold(_Hold):
    """``core.hold(dt)``, and each slice of ``Cpu.consume``: a foreign
    hold, granted in FIFO order with the slice runs."""

    __slots__ = ()

    def bind(self, waiter: _Waiter) -> None:
        core = self.resource
        self._waiter = waiter
        if core.run is not None:
            core.settle(core.sim.now)  # the rotation so far precedes us
        if core.in_use < 1 and not core._queue:
            core._account()
            core.in_use = 1
            self._handle = core.sim.schedule(self.duration, core._expire, self)
        else:
            core._queue.append(self)
            if core.run is not None:
                core._replan()
