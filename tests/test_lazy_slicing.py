"""Lazy time-slicing is an optimisation, not a model change.

``UserContext.compute`` yields one effect per compute stretch
(:class:`repro.sim.SliceRun`): the stretch queues on the host's core and
takes its round-robin turns there, alone or among the stretches of other
processes, without an event per quantum — the core replays the rotation
and dispatches only the boundaries at which a task has something to do.
The reference below is the loop that replaced — hold the core for one
quantum at a time, waking at *every* boundary to account the slice and
queue for the core again — kept here, and only
here, as a ``UserContext`` subclass.  Each scenario runs twice, once per
context class, and every observable must be **equal** (``==``, never
``approx``): simulated times, CPU accounting, dirty memory, checkpoint
progress, mid-run readings and the trace fingerprint.  Only the number
of events dispatched may differ, and only downwards.

Ties.  Who wins when a competitor reaches the core at exactly a quantum
boundary was decided, in the reference, by event sequence numbers: the
holder's quantum timer (armed one quantum earlier) against the
competitor's event.  The replay arms no timer for a boundary it may
skip, so it has a rule instead — a boundary at exactly ``now`` has
already passed — which is what the reference does whenever the
competitor's event is the younger one: a process or a ``Cpu.consume``
started at that instant (the ``boundary`` disturbance below), anything
reached through a deferred wake-up.  It is not what the reference does
when the competitor's *own older timer* fires on the boundary, the one
structural case being a task that hands the core over and then sleeps a
whole number of quanta: the reference lets it in at the boundary, the
replay one quantum later.  Schedules here stay clear of that case: sleeps
are never whole quanta and every timed disturbance has a phase of its own
within the quantum.
"""

from contextlib import ExitStack
from functools import wraps
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import SpriteCluster
from repro.checkpoint import CheckpointService
from repro.checkpoint import restart as restart_module
from repro.faults import trace_fingerprint
from repro.kernel import host as host_module
from repro.kernel import process as process_module
from repro.kernel import signals as sig
from repro.kernel.process import UserContext
from repro.net.rpc import RpcError
from repro.sim import Interrupted, SliceRun, Sleep, spawn
from repro.sim.resources import _Core, _CoreHold

QUANTUM = 0.01  # ClusterParams.cpu_quantum
MB = 1 << 20


# ----------------------------------------------------------------------
# The reference: one wake-up per quantum
# ----------------------------------------------------------------------
class _QuantumHold(_CoreHold):
    """``core.hold(slice)`` that remembers, when it is interrupted or
    aborted as the core's holder, how much of the slice it had burned
    (the core's ``_last_change`` is the instant it was granted)."""

    __slots__ = ("burned",)

    def __init__(self, core, duration):
        super().__init__(core, duration)
        self.burned = None

    def cancel(self, waiter):
        core = self.resource
        if self._handle is not None:
            self.burned = core.sim.now - core._last_change
        super().cancel(waiter)


class PerQuantumContext(UserContext):
    """``compute`` exactly as it was before lazy time-slicing."""

    #: Quantum boundaries at which no task had anything to do: the
    #: holder was not hurried (no signal or freeze waiting for that
    #: boundary), has more of the same compute to follow, and hands the
    #: core to another computing process or, with nobody waiting, back
    #: to itself.  ``longest`` is the most of them any core saw in a row
    #: with nothing else in between; from two on, the lazy
    #: implementation must get by with fewer events.
    quiet = 0
    longest = 0
    _streaks = {}
    #: Holds yielded from inside ``compute``: queued or holding.
    _waiting = set()

    @classmethod
    def reset(cls):
        cls.quiet = cls.longest = 0
        cls._streaks = {}
        cls._waiting = set()

    @classmethod
    def _boundary(cls, core, quiet):
        streak = cls._streaks.get(core, 0) + 1 if quiet else 0
        cls._streaks[core] = streak
        cls.quiet += quiet
        cls.longest = max(cls.longest, streak)

    def compute(self, demand, dirty_bytes_per_second=0.0):
        if demand < 0:
            raise ValueError(f"negative CPU demand: {demand}")
        cls = PerQuantumContext
        pcb = self.pcb
        kernels = self._kernels
        remaining = demand
        while remaining > 1e-9:
            if pcb.vm.page_in_debt > 0:
                yield from self._settle_vm_debt()
            kernel = kernels[pcb.current]
            cpu = kernel.cpu
            core = cpu.core
            slice_len = min(cpu.quantum, remaining / cpu.speed)
            consumed = 0.0
            cpu.runnable += 1
            pcb.interruptible = True
            unhurried = (
                not pcb.pending_signals and pcb.migration_ticket is None
            )
            hold = _QuantumHold(core, slice_len)
            cls._waiting.add(hold)
            try:
                yield hold
                consumed = slice_len * cpu.speed
                # The slice's end gave the core to the head of the
                # queue: to nobody, or to another compute's hold.
                cls._boundary(core, (
                    unhurried and remaining - consumed > 1e-9
                    and (core.in_use == 0
                         or any(other._handle is not None
                                for other in cls._waiting
                                if other.resource is core))
                ))
            except Interrupted as intr:
                if hold.burned is not None:
                    consumed = hold.burned * cpu.speed
                    cls._boundary(core, False)
                self._on_interrupt(intr)
            finally:
                cls._waiting.discard(hold)
                cpu.runnable -= 1
                pcb.interruptible = False
            remaining -= consumed
            pcb.cpu_time += consumed
            cpu.total_demand += consumed
            if dirty_bytes_per_second > 0 and consumed > 0:
                pcb.vm.touch(
                    int(dirty_bytes_per_second * consumed), write=True
                )
            if pcb.pending_signals:
                self._drain_signals()
            if pcb.migration_ticket is not None:
                yield from self._checkpoint()


# ----------------------------------------------------------------------
# Every settle stops where a task must run
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True, scope="module")
def settle_spy():
    """Check every ``_Core.settle(now)`` of this module's scenarios.
    Afterwards the holder's next boundary is after ``now``; and a settle
    that handed the core over where a task must run (a run to ``_due``,
    or a foreign hold its grant) did so at ``now``, so it walked no
    boundary past that one.  The core walks once per settle and stops at
    the first such boundary: this is what makes one walk enough.

    Yields the counts of the settles it saw and of those hand-overs."""
    seen = {"all": 0, "handed": 0}
    settle = _Core.settle

    @wraps(settle)
    def checked(core, now):
        due = len(core._due)
        holds = [entry for entry in core._queue
                 if entry.__class__ is not SliceRun]
        settle(core, now)
        seen["all"] += 1
        run = core.run
        if run is not None:
            cpu = core.cpu
            step = min(float(cpu.quantum), run.remaining / cpu.speed)
            assert core._last_change + step > now
        if (len(core._due) > due
                or any(hold._handle is not None for hold in holds)):
            seen["handed"] += 1
            assert core._last_change == now

    with mock.patch.object(_Core, "settle", checked):
        yield seen


# ----------------------------------------------------------------------
# Scenario programs and disturbances
# ----------------------------------------------------------------------
def boundary_after(start, quanta):
    """The float the per-quantum recurrence reaches after ``quanta``
    whole quanta from ``start``."""
    t = start
    for _ in range(quanta):
        t += QUANTUM
    return t


def lone_compute(proc, seconds, rate, log):
    yield from proc.compute(seconds, rate)
    log.append(("competitor-done", proc.pid, proc.now, proc.pcb.cpu_time))
    return 0


def program(proc, index, steps, boundary, cluster, log):
    """One process of the scenario: ``steps`` in order, logging after
    each.  Process 0 is the one checkpointed; all start on host 0, so
    consecutive ``compute`` steps re-enter the core's queue at the very
    instant the previous stretch ended."""
    proc.catch_signal(sig.SIGUSR1)
    yield from proc.use_memory(MB)
    for position, step in enumerate(steps):
        kind = step[0]
        if kind == "compute":
            _, quanta, rate = step
            if index == 0 and position == 0 and boundary is not None:
                spawn(proc.sim, _boundary_arrival(cluster, boundary, log))
            yield from proc.compute(quanta * QUANTUM, rate)
        elif kind == "migrate":
            try:
                yield from proc.migrate(step[1])
            except RpcError as refused:  # e.g. an image is being written
                log.append((index, "migrate-refused", type(refused).__name__))
        elif kind == "sleep":
            yield from proc.sleep(step[1] * QUANTUM)
        log.append((index, kind, proc.now, proc.pcb.current, proc.pcb.cpu_time,
                    proc.pcb.vm.dirty, tuple(proc.signals_seen())))
    return 0


def _boundary_arrival(cluster, boundary, log):
    """Bring a competitor to host 0's core at exactly a quantum boundary
    of the rotation in progress, about ``b`` quanta from now, from an
    event scheduled in the middle of the quantum before it: a process
    that computes ``amount`` quanta, or ``Cpu.consume`` of ``amount``
    seconds."""
    b, kind, amount = boundary
    sim = cluster.sim
    host = cluster.hosts[0]
    yield Sleep((b - 0.4631) * QUANTUM)  # no compute ends on this phase
    host.cpu.sync()
    core = host.cpu.core
    arrival = core._last_change + QUANTUM
    if core.in_use == 0 or arrival <= sim.now:
        return  # idle, or a holder other than a compute: no boundary ahead
    if kind == "compete":
        sim.schedule_at(arrival, host.spawn_process, lone_compute,
                        amount * QUANTUM, 0.0, log)
    else:
        sim.schedule_at(arrival, spawn, sim, _consume(host, amount, log))


def _consume(host, seconds, log):
    yield from host.cpu.consume(seconds)
    log.append(("consumed", host.sim.now))


def disturbance(cluster, injector, pcbs, event, log):
    """One driver task per disturbance; all are spawned at time zero."""
    when, kind, *args = event
    hosts = cluster.hosts
    yield Sleep(when * QUANTUM)
    if kind == "compete":
        host, quanta, rate = args
        hosts[host].spawn_process(lone_compute, quanta * QUANTUM, rate, log)
    elif kind == "consume":
        host, seconds = args
        yield from hosts[host].cpu.consume(seconds)
    elif kind == "hold":
        host, seconds = args
        yield hosts[host].cpu.core.hold(seconds)
    elif kind == "signal":
        pcb = pcbs[args[1] if len(args) > 1 else 0]
        yield from hosts[0].kernel.signal(pcb.pid, args[0])
    elif kind == "taskkill":
        pcb = pcbs[args[0] if args else 0]
        if pcb.task is not None:
            pcb.task.interrupt()
    elif kind == "migrate":
        pcb = pcbs[args[1] if len(args) > 1 else 0]
        manager = cluster.managers.get(pcb.current)
        try:
            yield from manager.migrate(pcb, hosts[args[0]].address)
        except RpcError as refused:
            log.append(("migration-refused", cluster.sim.now, type(refused).__name__))
    elif kind == "crash":
        injector.crash_host(hosts[args[0]])
    elif kind == "ps":
        host = hosts[args[0]]
        log.append(("ps", cluster.sim.now, host.kernel.ps(),
                    host.cpu.utilization()))
    elif kind == "land":
        yield from _land(cluster, pcbs[0], log, *args)


def _land(cluster, pcb, log, demand, back, reader):
    """Bring ``reader`` (``"ps"`` of host 0, or ``"sweep"``: the checkpoint
    service's sweep of host 0) to host 0's core at exactly the boundary
    where process 0's lone first compute of ``demand`` quanta is spent
    (``back`` = 0: the core's planned wake-up) or ``back`` quanta before
    it.  The reader's event is armed in the middle of the quantum before
    that boundary, so, as for ``boundary`` arrivals, it is younger than
    the reference's timer for the boundary and than the core's wake-up."""
    sim = cluster.sim
    host = cluster.hosts[0]
    cpu = host.cpu
    cpu.sync()
    # The per-quantum recurrence from the last boundary, with what is
    # left of the demand after the whole quanta on the books.
    whole = QUANTUM * cpu.speed
    remaining, done = demand * QUANTUM, 0.0
    while done < pcb.cpu_time:
        done += whole
        remaining -= whole
    assert done == pcb.cpu_time
    ahead = [cpu.core._last_change]
    while remaining > 1e-9:
        consumed = min(QUANTUM, remaining / cpu.speed)
        ahead.append(ahead[-1] + consumed)
        remaining -= consumed * cpu.speed
    target, before = ahead[-1 - back], ahead[-2 - back]
    assert before > sim.now
    yield Sleep((before + target) / 2 - sim.now)

    def read():
        if reader == "ps":
            log.append(("landed", sim.now, host.kernel.ps(), cpu.utilization()))
        else:
            spawn(sim, cluster.checkpoints.sweep(host))

    sim.schedule_at(target, read)


def readings(cluster, pcbs):
    """What a reader outside the processes may look at, mid-run or after."""
    listing = [host.kernel.ps() for host in cluster.hosts]  # syncs each cpu
    return {
        "now": cluster.sim.now,
        "ps": listing,
        "cpu_seconds": cluster.total_cpu_seconds(),
        "total_demand": [h.cpu.total_demand for h in cluster.hosts],
        "busy_time": [h.cpu.core.busy_time for h in cluster.hosts],
        "utilization": [h.cpu.utilization() for h in cluster.hosts],
        "core": [(h.cpu.core.in_use, h.cpu.core.queue_length, h.cpu.runnable)
                 for h in cluster.hosts],
        "cpu_time": [pcb.cpu_time for pcb in pcbs],
        "dirty": [(pcb.vm.dirty, pcb.vm.resident) for pcb in pcbs],
        "state": [(pcb.state, pcb.current) for pcb in pcbs],
    }


def run_scenario(scenario, context_cls):
    """Run ``scenario`` with processes driven by ``context_cls``."""
    with ExitStack() as stack:
        for module in (host_module, process_module, restart_module):
            stack.enter_context(
                mock.patch.object(module, "UserContext", context_cls)
            )
        cluster = SpriteCluster(
            workstations=len(scenario["speeds"]), start_daemons=False,
            seed=7, trace=True, cpu_speeds=scenario["speeds"],
        )
        injector = cluster.faults(detect_delay=0.5)
        log = []
        pcbs = []
        for index, steps in enumerate(scenario["procs"]):
            steps = [
                ("migrate", cluster.hosts[s[1]].address)
                if s[0] == "migrate" else s
                for s in steps
            ]
            args = (index, steps, scenario["boundary"], cluster, log)
            pcb, _ = cluster.hosts[0].spawn_process(
                program, *args, name=f"proc{index}"
            )
            pcbs.append(pcb)
            if index == 0:
                main_args = args
        service = None
        if scenario["checkpoint"] is not None:
            interval, mode = scenario["checkpoint"]
            service = CheckpointService(
                cluster, injector=injector, interval=interval * QUANTUM,
                mode=mode,
            )
            service.register(pcbs[0], program, *main_args)
        for event in scenario["events"]:
            spawn(cluster.sim, disturbance(cluster, injector, pcbs, event, log),
                  daemon=True)
        stops = []
        for stop in scenario["stops"]:
            cluster.run(until=stop * QUANTUM)
            stops.append(readings(cluster, pcbs))
        cluster.run(until=scenario["horizon"] * QUANTUM)
        images = []
        if service is not None:
            images = [
                (im.seq, im.mode, im.taken_at, im.progress, im.image_bytes,
                 im.intact)
                for im in service.store.images.get(pcbs[0].pid, [])
            ]
        return {
            "log": log,
            "stops": stops,
            "final": readings(cluster, pcbs),
            "images": images,
            "migrations": [
                (r.pid, r.source, r.target, r.started, r.total_time, r.refused)
                for r in cluster.migration_records()
            ],
            "trace": trace_fingerprint(cluster.tracer),
            "trace_records": len(cluster.tracer.records),
        }, cluster.sim.events_fired


def assert_same_simulation(scenario):
    PerQuantumContext.reset()
    expected, reference_events = run_scenario(scenario, PerQuantumContext)
    longest = PerQuantumContext.longest
    actual, events = run_scenario(scenario, UserContext)
    for key in expected:
        assert actual[key] == expected[key], key
    assert events <= reference_events
    if longest >= 2:
        assert events < reference_events


# ----------------------------------------------------------------------
# Generated schedules
# ----------------------------------------------------------------------
SPEEDS = st.sampled_from([1.0, 1.0, 0.5, 2.0, 1.25])
RATES = st.sampled_from([0.0, 0.0, 2.0e5, 3.3e6])
#: Durations that are no multiple or simple fraction of the quantum.
CHARGES = st.sampled_from([0.00137, 0.0171, 0.0333, 0.00005])
#: Sleeps in quanta, never a whole number of them: a process that gives
#: up the core and sleeps exactly n quanta comes back on a boundary of
#: whoever took the core over, ahead of that holder's quantum timer.
SLEEPS = st.builds(
    lambda whole, part: whole + part,
    st.integers(0, 20), st.sampled_from([0.137, 0.291, 0.618]),
)


@st.composite
def scenarios(draw):
    nhosts = draw(st.integers(2, 3))
    hosts = st.integers(0, nhosts - 1)
    quanta = st.floats(min_value=0.3, max_value=300.0, allow_nan=False)
    steps = [("compute", draw(quanta), draw(RATES))]
    for _ in range(draw(st.integers(0, 3))):
        steps.append(draw(st.one_of(
            st.tuples(st.just("compute"), quanta, RATES),
            st.tuples(st.just("migrate"), hosts),
            st.tuples(st.just("sleep"), SLEEPS),
        )))
    # Up to four more compute-bound processes on the same core, with
    # demands of their own; half the schedules have the core shared
    # from the start.
    procs = [steps]
    shorter = st.floats(min_value=0.3, max_value=120.0, allow_nan=False)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3, 4]))):
        procs.append(draw(st.lists(
            st.one_of(
                st.tuples(st.just("compute"), shorter, RATES),
                st.tuples(st.just("compute"), shorter, RATES),
                st.tuples(st.just("migrate"), hosts),
                st.tuples(st.just("sleep"), SLEEPS),
            ), min_size=1, max_size=3,
        )))
    targets = st.integers(0, len(procs) - 1)
    kinds = st.one_of(
        st.tuples(st.just("compete"), hosts, quanta, RATES),
        st.tuples(st.just("consume"), hosts, CHARGES),
        st.tuples(st.just("hold"), hosts, CHARGES),
        st.tuples(st.just("signal"),
                  st.sampled_from([sig.SIGUSR1, sig.SIGUSR1, sig.SIGTERM]),
                  targets),
        st.tuples(st.just("taskkill"), targets),
        st.tuples(st.just("migrate"), hosts, targets),
        st.tuples(st.just("crash"), hosts),
        st.tuples(st.just("ps"), hosts),
    )
    count = draw(st.integers(0, 6))
    events = []
    for index in range(count):
        # Each disturbance gets a phase of its own within the quantum,
        # so that none arrives on a boundary set by another.
        phase = (index + draw(st.floats(min_value=0.2, max_value=0.8))) / (count + 1)
        when = draw(st.integers(0, 400)) + 0.05 + 0.9 * phase
        events.append((when,) + draw(kinds))
    boundary = draw(st.none() | st.one_of(
        st.tuples(st.integers(1, 40), st.just("compete"), quanta),
        st.tuples(st.integers(1, 40), st.just("consume"), CHARGES),
    ))
    checkpoint = draw(st.none() | st.tuples(
        st.floats(min_value=20.0, max_value=200.0),
        st.sampled_from(["full", "incremental"]),
    ))
    stops = sorted(draw(st.lists(
        st.floats(min_value=1.0, max_value=500.0), max_size=2,
    )))
    return {
        "speeds": [draw(SPEEDS) for _ in range(nhosts)],
        "procs": procs,
        "events": events,
        "boundary": boundary,
        "checkpoint": checkpoint,
        "stops": stops,
        "horizon": 4000.0,
    }


def scenario(steps, events=(), boundary=None, checkpoint=None, stops=(),
             speeds=(1.0, 1.0), rivals=()):
    return {
        "speeds": list(speeds),
        "procs": [list(steps)] + [list(rival) for rival in rivals],
        "events": list(events), "boundary": boundary,
        "checkpoint": checkpoint, "stops": list(stops), "horizon": 4000.0,
    }


#: Three rivals with unequal demands, one dirtying memory, one computing
#: in three back-to-back stretches: with the main process, a rotation of
#: four from about t = 7 quanta (``use_memory`` comes first) to 160.
RIVALS = (
    [("compute", 61.7, 0.0)],
    [("compute", 40.3, 2.0e5), ("compute", 25.0, 0.0)],
    [("compute", 12.5, 0.0), ("compute", 0.4, 0.0), ("compute", 30.1, 3.3e6)],
)
#: The same rivals computing ten times as long, and a fifth: rotations of
#: two, four and five that go round for hundreds of rounds, long enough
#: for the core to replay whole rounds in one step between disturbances.
LONG_RIVALS = tuple(
    [(kind, quanta * 10, rate) for kind, quanta, rate in rival]
    for rival in RIVALS
)
FIFTH_RIVAL = [("compute", 500.0, 0.0)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
@example(scenario([("compute", 100.0, 0.0)]))
@example(scenario([("compute", 250.5, 2.0e5)], speeds=(0.5, 2.0)))
@example(scenario([("compute", 120.0, 2.0e5)], boundary=(7, "compete", 30.0)))
@example(scenario([("compute", 120.0, 0.0)],
                  events=[(30.4, "compete", 0, 50.0, 2.0e5),
                          (60.7, "consume", 0, 0.0171)]))
@example(scenario([("compute", 200.0, 2.0e5), ("migrate", 1),
                   ("compute", 80.0, 0.0)],
                  events=[(50.3, "signal", sig.SIGUSR1),
                          (120.6, "migrate", 1)], speeds=(1.0, 1.25)))
@example(scenario([("compute", 200.0, 3.3e6)],
                  events=[(90.5, "signal", sig.SIGTERM)]))
@example(scenario([("compute", 200.0, 0.0)], events=[(90.5, "taskkill")]))
@example(scenario([("compute", 300.0, 2.0e5)],
                  events=[(150.5, "crash", 0)],
                  checkpoint=(40.0, "incremental")))
@example(scenario([("compute", 300.0, 2.0e5)], checkpoint=(33.0, "full"),
                  stops=[77.7, 180.2]))
# A shared core: the rotation by itself, at another speed, and read by
# ps and the checkpoint daemon while it turns.
@example(scenario([("compute", 100.0, 2.0e5)], rivals=RIVALS))
@example(scenario([("compute", 100.0, 2.0e5)], rivals=RIVALS,
                  speeds=(1.25, 0.5), checkpoint=(33.0, "incremental"),
                  events=[(40.3, "ps", 0), (90.6, "ps", 0)],
                  stops=[55.5, 120.2]))
# Foreign arrivals: mid-quantum, and exactly on a boundary.
@example(scenario([("compute", 100.0, 0.0)], rivals=RIVALS,
                  events=[(30.4, "consume", 0, 0.0171),
                          (30.6, "hold", 0, 0.00137),
                          (61.3, "consume", 0, 0.0333)]))
@example(scenario([("compute", 100.0, 0.0)], rivals=RIVALS,
                  boundary=(23, "consume", 0.0171)))
@example(scenario([("compute", 100.0, 0.0)], rivals=RIVALS,
                  boundary=(24, "compete", 30.0)))
# Caught and fatal signals, a bare kill and both kinds of migration, each
# at four consecutive quanta of a rotation of four: they hit every
# process once as the holder and three times while it is queued.
@example(scenario([("compute", 100.0, 2.0e5)], rivals=RIVALS,
                  events=[(20.3 + i, "signal", sig.SIGUSR1, i % 4)
                          for i in range(8)]))
@example(scenario([("compute", 100.0, 2.0e5)], rivals=RIVALS,
                  events=[(20.3, "signal", sig.SIGTERM, 1),
                          (21.4, "signal", sig.SIGTERM, 2),
                          (30.5, "taskkill", 3), (31.6, "taskkill", 0)]))
@example(scenario([("compute", 100.0, 2.0e5)], rivals=RIVALS,
                  events=[(20.3, "migrate", 1, 0), (21.4, "migrate", 1, 1),
                          (22.5, "migrate", 1, 2), (23.6, "migrate", 1, 3)]))
@example(scenario([("compute", 30.2, 0.0), ("migrate", 1),
                   ("compute", 50.0, 0.0)],
                  rivals=[[("compute", 30.7, 0.0), ("migrate", 1),
                           ("compute", 20.0, 2.0e5)],
                          [("compute", 31.1, 0.0), ("migrate", 1),
                           ("compute", 10.0, 0.0)]]))
# A host crash takes the holder and everyone queued behind it.
@example(scenario([("compute", 300.0, 2.0e5)], rivals=RIVALS,
                  events=[(50.5, "crash", 0)],
                  checkpoint=(20.0, "incremental")))
# Whole rounds replayed in one step: a ps read (at 650.6), a checkpoint
# (at 330), a caught signal and a host crash each land 70 to 140 quanta
# after the core last settled, in a rotation of two, four or five.
@example(scenario([("compute", 1000.0, 2.0e5)], rivals=LONG_RIVALS[:1],
                  speeds=(1.25, 0.5),
                  events=[(300.3, "ps", 0), (650.6, "ps", 0)]))
@example(scenario([("compute", 1000.0, 2.0e5)], rivals=LONG_RIVALS,
                  speeds=(1.25, 0.5), checkpoint=(330.0, "incremental")))
@example(scenario([("compute", 1000.0, 2.0e5)], rivals=LONG_RIVALS,
                  speeds=(1.25, 0.5),
                  events=[(500.4, "signal", sig.SIGUSR1, 2),
                          (700.6, "signal", sig.SIGUSR1, 0)]))
@example(scenario([("compute", 1000.0, 2.0e5)],
                  rivals=LONG_RIVALS + (FIFTH_RIVAL,), speeds=(1.25, 0.5),
                  events=[(460.5, "crash", 0)],
                  checkpoint=(200.0, "incremental")))
# A lone compute's last plan is kept and published by its wake-up: a
# reader lands exactly on that wake-up or one quantum before it (which
# makes the wake-up walk), and a caught signal, a fatal one and a ps hit
# the stretch the plan walked.
@example(scenario([("compute", 200.0, 2.0e5)],
                  events=[(60.3, "land", 200.0, 0, "ps")]))
@example(scenario([("compute", 200.0, 2.0e5)],
                  events=[(60.3, "land", 200.0, 1, "ps")]))
@example(scenario([("compute", 200.0, 2.0e5)], speeds=(1.25, 0.5),
                  checkpoint=(3000.0, "incremental"),
                  events=[(60.3, "land", 200.0, 0, "sweep")]))
@example(scenario([("compute", 200.0, 2.0e5)],
                  checkpoint=(3000.0, "full"),
                  events=[(60.3, "land", 200.0, 1, "sweep")]))
@example(scenario([("compute", 200.0, 2.0e5)],
                  events=[(160.4, "signal", sig.SIGUSR1),
                          (170.6, "ps", 0)]))
@example(scenario([("compute", 200.0, 2.0e5)],
                  events=[(160.4, "signal", sig.SIGTERM)]))
def test_lazy_slicing_matches_the_per_quantum_reference(scenario):
    assert_same_simulation(scenario)


def test_reference_and_lazy_contexts_really_differ(settle_spy):
    """Guard the harness itself: the patched class is the one that runs,
    the trace compared is not empty, the reference counts its quiet
    boundaries, and the lazy run needs far fewer events — of a lone 1 s
    compute, and of a core four processes share, where the settle spy
    sees runs spent mid-rotation."""
    lone = scenario([("compute", 100.0, 0.0), ("migrate", 1)])
    PerQuantumContext.reset()
    observed, reference_events = run_scenario(lone, PerQuantumContext)
    assert PerQuantumContext.quiet == PerQuantumContext.longest == 99
    assert observed["trace_records"] > 0
    assert [entry[1] for entry in observed["log"]] == ["compute", "migrate"]
    _, events = run_scenario(lone, UserContext)
    assert reference_events - events > 75  # of the 100 boundaries

    shared = scenario([("compute", 100.0, 2.0e5)], rivals=RIVALS)
    PerQuantumContext.reset()
    _, reference_events = run_scenario(shared, PerQuantumContext)
    assert PerQuantumContext.longest > 40
    handed = settle_spy["handed"]
    _, events = run_scenario(shared, UserContext)
    assert reference_events - events > 200
    assert settle_spy["handed"] > handed


class _CountingQuantum(float):
    """A quantum that counts the boundaries computed from it: the core
    walks a quantum with one ``boundary + quantum``."""

    added = 0

    def __radd__(self, other):
        _CountingQuantum.added += 1
        return float.__radd__(self, other)


def test_a_lone_computes_wake_up_replays_no_quanta():
    """The plan that arms a lone compute's wake-up where its demand is
    spent walks the quanta up to it once; the settle at that wake-up
    publishes the walk instead of walking them again (at most one
    addition: the check that a boundary has passed), and the run still
    equals the per-quantum reference.  So does the wake-up at which the
    first run of a closed rotation of four is spent."""
    calls = []

    def spy(method):
        def counted(core, *args):
            cpu = core.cpu
            quantum = cpu.quantum
            cpu.quantum = _CountingQuantum(quantum)
            _CountingQuantum.added = 0
            due = len(core._due)
            try:
                method(core, *args)
            finally:
                cpu.quantum = quantum
            calls.append((method.__name__, _CountingQuantum.added,
                          len(core._due) > due))
        return counted

    def spent_at(case):
        """Indices in ``calls`` of the settles at which a run is spent."""
        calls.clear()
        with mock.patch.object(_Core, "settle", spy(_Core.settle)), \
                mock.patch.object(_Core, "_plan", spy(_Core._plan)):
            run_scenario(case, UserContext)
        return [i for i, (name, _, done) in enumerate(calls)
                if name == "settle" and done]

    lone = scenario([("compute", 100.0, 2.0e5)])
    # The horizon doubles from two: plans of 2, 4, ..., 32 quanta, then
    # one that walks the last 38 slices: 37 whole quanta, one addition
    # each, and a shorter last slice (the demand's rounding leaves one).
    (spent,) = spent_at(lone)
    assert calls[spent][1] <= 1
    plans = [added for name, added, _ in calls[:spent] if name == "_plan"]
    assert plans == [2, 4, 8, 16, 32, 37]
    assert_same_simulation(lone)

    four = scenario([("compute", 100.0, 2.0e5)], rivals=(
        [("compute", 61.7, 0.0)], [("compute", 40.3, 2.0e5)],
        [("compute", 80.5, 3.3e6)],
    ))
    first = spent_at(four)[0]
    assert calls[first][1] <= 1
    assert sum(added for name, added, _ in calls[:first]
               if name == "_plan") > 100  # the plans walked the rotation
    assert_same_simulation(four)


# ----------------------------------------------------------------------
# Readers see per-quantum values
# ----------------------------------------------------------------------
def test_ps_mid_run_reports_whole_quanta():
    """0.505 s into a lone 1 s compute, fifty whole quanta are on the
    books — not zero (nothing settled yet) and not 0.505."""
    cluster = SpriteCluster(workstations=1, start_daemons=False)
    host = cluster.hosts[0]

    def job(proc):
        yield from proc.compute(1.0)
        return 0

    pcb, _ = host.spawn_process(job, name="job")
    cluster.run(until=0.505)
    (entry,) = [e for e in host.kernel.ps() if e["pid"] == pcb.pid]
    assert entry["cpu_time"] == 0.5
    assert pcb.cpu_time == boundary_after(0.0, 50)
    assert host.cpu.total_demand == pcb.cpu_time
    assert host.cpu.utilization() == pytest.approx(1.0)
    cluster.run(until=2.0)
    assert pcb.cpu_time == pytest.approx(1.0)


def test_ps_mid_rotation_reports_each_process_its_own_quanta():
    """0.255 s into a core three processes share from the start, 25
    quanta have passed: nine for the first in the queue, eight each for
    the others."""
    cluster = SpriteCluster(workstations=1, start_daemons=False)
    host = cluster.hosts[0]

    def job(proc):
        yield from proc.compute(1.0)
        return 0

    pcbs = [host.spawn_process(job, name=f"job{i}")[0] for i in range(3)]
    cluster.run(until=0.255)
    listing = {e["pid"]: e["cpu_time"] for e in host.kernel.ps()}
    assert [listing[pcb.pid] for pcb in pcbs] == [
        boundary_after(0.0, 9), boundary_after(0.0, 8), boundary_after(0.0, 8),
    ]
    assert host.cpu.total_demand == boundary_after(0.0, 25)
    assert cluster.sim.events_fired < 12
