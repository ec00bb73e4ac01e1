"""Contended resources: counting semaphores and processor-sharing CPUs."""

from __future__ import annotations

from collections import deque
from heapq import heappush
from math import inf, ulp
from sys import maxsize
from typing import Any, Callable, Deque, Generator, Optional

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
        core = self.core
        if core.run is not None:
            # ``sync``: the rotation's quanta so far precede this charge.
            core.settle(self.sim.now)
        self.total_demand += demand
        remaining = demand / self.speed
        self.runnable += 1
        try:
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
    ``cpu_time`` attribute (a process control block), no other run's.
    ``on_slices(n, consumed)``, if given, is told of every ``n``
    consecutive slices of ``consumed`` CPU-seconds each, in slice order.
    """

    __slots__ = (
        "remaining", "cpu", "eager", "_account", "_on_slices", "_partial",
        "_waiter",
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
      is spent, an ``eager`` run ends its first quantum, or a foreign
      hold reaches the head of the queue;
    * **one walker:** :meth:`_walk` replays the rotation from the
      published state, in rotation order, with the floats of the
      recurrence per-quantum slicing runs (``t += min(quantum,
      remaining / speed)``, addition by addition — never ``start + k *
      quantum``, which differs in the last bit) and the same additions
      into each run's ``remaining`` and ``account.cpu_time``, into
      ``cpu.total_demand`` and into :attr:`busy_time`.  It publishes
      nothing and stops at whichever comes first: a time limit, a
      boundary-count limit, or the first boundary where a task must run;
    * :meth:`settle` is the only place slice accounting is published.
      It walks to ``now`` and publishes the end state — each run's
      slices go to its ``on_slices`` — and, if the walk stopped where a
      task must run, hands the core over at that boundary: the run to
      :attr:`_due`, or the foreign hold at the head its grant.  Such a
      boundary is never behind ``now``, because the wake-up is armed on
      it, so one walk is all a settle needs;
    * :meth:`_plan` walks at most :attr:`_horizon` boundaries and arms
      the core's **one** wake-up on the end boundary.  It keeps the walk
      (``_kept``), and the settle at that wake-up publishes it instead of
      walking the same quanta again, if the core's published boundary,
      ``total_demand`` and busy time are still the floats the walk
      started from.  The runs' own numbers cannot have moved without
      them: a settle that publishes moves the boundary and drops the
      kept walk, every edit of the queue plans again, and the one write
      from outside, :meth:`SliceRun.charge_partial`, moves
      ``total_demand``.  Any other settle, a reader's before the wake-up
      included, walks;
    * **whole rounds:** in a *closed* rotation (no eager run, no foreign
      hold queued; a lone run is a rotation of one) the walker replays
      whole rounds that certainly end inside both limits in one step
      when there are at least ``_JUMP_QUANTA`` quanta of them, and
      leaves every run more than two whole quanta above ``ample``:
      :func:`_repeat_add` gives each sum exactly the float the additions
      one by one give.  A whole round is a whole quantum, the same
      ``whole``, for every run in turn, so after it each run is back in
      its place in the queue, and how the round's additions interleave
      between runs changes no sum.  The per-quantum loop still replays
      the last round or two, and stays the only code that compares with
      the time limit, ``ample`` and ``1e-9``;
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
    ``log2(n)`` wake-ups, each walked once.  A walk costs at most one
    round jump, two :func:`_repeat_add` calls per run (O(1) per binade
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
        #: The armed wake-up's walk, kept by :meth:`_plan` for the settle
        #: that reaches it (what :meth:`_walk` returned).
        self._kept: Optional[tuple] = None

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
            self.in_use = 0

    def _expire(self, hold: "_Hold") -> None:
        queue = self._queue
        if (self.run is not None or self.in_use != 1
                or queue and queue[0].__class__ is SliceRun):
            super()._expire(hold)
            return
        # ``release`` by a foreign holder, inline, when the core goes
        # idle or to another foreign hold: every ``Cpu.consume`` slice
        # ends here.
        hold._handle = None
        sim = self.sim
        now = sim.now
        self.busy_time += now - self._last_change  # ``_account``, one unit
        self._last_change = now
        if not queue:
            self.in_use = 0
        else:
            head = queue.popleft()
            duration = head.duration
            if duration > 0.0:
                time = now + duration
                head._handle = handle = EventHandle(
                    time, self._expire, (head,), sim
                )
                heappush(sim._heap, (time, next(sim._seq), handle))
            else:
                head._handle = sim.schedule(duration, self._expire, head)
        hold._waiter._resume(None)

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
        """Publish every quantum boundary at or before ``now``."""
        run = self.run
        if run is None:
            return
        cpu = self.cpu
        quantum = cpu.quantum
        step = run.remaining / cpu.speed
        if self._last_change + (step if step < quantum else quantum) > now:
            return
        end = self._kept
        self._kept = None
        if (end is None or end[0] != now or end[10]
                != (self._last_change, cpu.total_demand, self.busy_time)):
            end = self._walk(now, maxsize)
        # else the wake-up's own walk, from the very state it started from
        (self._last_change, cpu.total_demand, self.busy_time, walked, runs,
         rems, times, turn, stop, tail, _) = end
        for index, run in enumerate(runs):
            if index == walked:
                break  # this run and those after it had no quantum
            run.remaining = rems[index]
            run._account.cpu_time = times[index]
            report = run._on_slices
            if report is not None:
                # Boundary k of the walk (from 0) ended a slice of
                # runs[k % len(runs)]; the tail, if any, is the last.
                slices = len(range(index, walked - (tail is not None),
                                   len(runs)))
                if slices:
                    report(slices, quantum * cpu.speed)
                if tail is not None and index == turn:
                    report(1, tail)
        queue = self._queue
        if turn:
            queue.appendleft(self.run)
            queue.rotate(-turn)
            self.run = queue.popleft()
        if stop:
            run = self.run
            if run.remaining > 1e-9 and not run.eager:
                queue.append(run)  # behind the foreign hold now at the head
            else:
                self._due.append(run)
            self._hand_over()

    def _walk(self, until: float, limit: int) -> tuple:
        """Walk the rotation from the published state, publishing
        nothing: to the last boundary at or before ``until``, to at most
        ``limit`` boundaries, or to the first boundary where a task must
        run (``stop``), whichever comes first.

        Returns ``(boundary, total_demand, busy_time, walked, runs,
        remaining, cpu_time, turn, stop, tail, start)``: the end boundary
        and the core's floats there, how many boundaries were walked, the
        runs whose turns are certain in rotation order (the holder
        first) with their ``remaining`` and ``cpu_time`` at the end, the
        index of the run that holds the core there (or whose quantum
        ended there, if ``stop``), the charge of the last slice if it was
        a demand's last, shorter one (``None`` otherwise), and the
        published floats the walk started from.
        """
        # The runs whose turns are certain: up to a foreign hold (the
        # boundary that gives it the core is real) or an eager run (the
        # end of its first quantum is).  ``closed`` when neither is
        # there and the rotation goes round.
        run = self.run
        runs = [run]
        rems = [run.remaining]
        times = [run._account.cpu_time]
        closed = not run.eager
        if closed:
            for entry in self._queue:
                if entry.__class__ is not SliceRun:
                    closed = False
                    break
                runs.append(entry)
                rems.append(entry.remaining)
                times.append(entry._account.cpu_time)
                if entry.eager:
                    closed = False
                    break
        cpu = self.cpu
        boundary = self._last_change
        demand = cpu.total_demand
        busy = self.busy_time
        start = (boundary, demand, busy)
        quantum = cpu.quantum
        speed = cpu.speed
        whole = quantum * speed
        ample = 2.0 * whole  # demand for a whole quantum, without dividing
        size = len(runs)
        walked = 0
        if (closed and limit >= _JUMP_QUANTA
                and until - boundary > _JUMP_QUANTA * quantum):
            # Whole rounds in one step, ending a round or more before
            # ``until`` and leaving every run more than two whole quanta
            # above ample; the loop below replays the boundaries that are
            # left.  ``x * 2 ** -53`` bounds the rounding of one addition
            # near x.
            rounds = limit // size
            if until < inf:
                rounds = min(rounds, int(
                    (until - boundary)
                    / (size * (quantum + until * 2.0 ** -53))) - 1)
            for rem in rems:
                rounds = min(rounds, int(
                    (rem - ample) / (whole + rem * 2.0 ** -53)) - 2)
            if rounds * size >= _JUMP_QUANTA:
                walked = rounds * size
                boundary, busy = _repeat_add(boundary, quantum, walked, busy)
                demand = _repeat_add(demand, whole, walked)
                for index in range(size):
                    rems[index] = _repeat_add(rems[index], -whole, rounds)
                    times[index] = _repeat_add(times[index], whole, rounds)
        # The holder's state lives in locals; a run keeps the core for
        # quanta in a row only when it is the whole rotation.
        last = size - 1
        shared = last or not closed
        turn = 0
        remaining = rems[0]
        cpu_time = times[0]
        stop = False
        tail = None
        for walked in range(walked, limit):  # boundaries walked so far
            if remaining > ample or not remaining / speed < quantum:
                nxt = boundary + quantum
                consumed = whole
            else:
                # The demand's last, shorter slice.
                step = remaining / speed
                nxt = boundary + step
                consumed = tail = step * speed
            if nxt > until:
                tail = None
                break
            remaining -= consumed
            cpu_time += consumed
            demand += consumed
            busy += nxt - boundary
            boundary = nxt
            if not remaining > 1e-9:
                stop = True  # this run's demand is spent
                break
            if shared:
                rems[turn] = remaining
                times[turn] = cpu_time
                if turn < last:
                    turn += 1
                elif closed:
                    turn = 0
                else:
                    stop = True  # an eager run's first quantum, or a
                    break        # foreign hold at the head of the queue
                remaining = rems[turn]
                cpu_time = times[turn]
        else:
            walked = limit
        if stop:
            walked += 1
        rems[turn] = remaining
        times[turn] = cpu_time
        return (boundary, demand, busy, walked, runs, rems, times, turn,
                stop, tail, start)

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
        at most ``_horizon`` boundaries ahead, keeping the walk to it.
        The core is settled."""
        self._handle = self._kept = None
        if self._due:
            # Settled by a reader at the very instant of the wake-up.
            self._planned = 0
            self._handle = self.sim.call_soon(self._fire)
            return
        if self.run is None:
            return
        self._kept = end = self._walk(inf, self._horizon)
        self._planned = end[3]
        self._handle = self.sim.schedule_at(end[0], self._fire)

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
            # ``_account``, ``schedule`` and the grant, inline: an idle
            # core adds no busy time, and a positive hold is its own
            # heap entry, as ``schedule`` would push it.
            sim = core.sim
            now = core._last_change = sim.now
            core.in_use = 1
            duration = self.duration
            if duration > 0.0:
                time = now + duration
                self._handle = handle = EventHandle(
                    time, core._expire, (self,), sim
                )
                heappush(sim._heap, (time, next(sim._seq), handle))
            else:
                self._handle = sim.schedule(duration, core._expire, self)
        else:
            core._queue.append(self)
            if core.run is not None:
                core._replan()
