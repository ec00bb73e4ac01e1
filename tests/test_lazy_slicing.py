"""Lazy time-slicing is an optimisation, not a model change.

``UserContext.compute`` lets an uncontended process sleep across many
quanta in one event (:class:`repro.sim.SliceRun`).  The reference below
is the loop it replaced — wake at *every* quantum, release and
re-acquire the core, account the slice — kept here, and only here, as a
``UserContext`` subclass.  Each scenario runs twice, once per context
class, and every observable must be **equal** (``==``, never
``approx``): simulated times, CPU accounting, dirty memory, checkpoint
progress, mid-run readings and the trace fingerprint.  Only the number
of events dispatched may differ, and only downwards.

Ties.  Who wins when a competitor reaches the core at exactly a quantum
boundary was decided, in the reference, by event sequence numbers: the
holder's quantum timer (armed one quantum earlier) against the
competitor's event.  ``SliceRun`` arms no timer for a boundary it may
skip, so it has a rule instead — a boundary at exactly ``now`` has
already passed — which is what the reference does whenever the
competitor's event is the younger one: a process spawned at that
instant (the ``boundary`` disturbance below), anything reached through a
deferred wake-up.  It is not what the reference does when the
competitor's *own older timer* fires on the boundary, the one structural
case being a task that hands the core over and then sleeps a whole
number of quanta: the reference lets it in at the boundary, ``SliceRun``
one quantum later.  Schedules here stay clear of that case: sleeps are
never whole quanta and every timed disturbance has a phase of its own
within the quantum.
"""

from contextlib import ExitStack
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
from repro.sim import Interrupted, Sleep, spawn

QUANTUM = 0.01  # ClusterParams.cpu_quantum
MB = 1 << 20


# ----------------------------------------------------------------------
# The reference: one wake-up per quantum
# ----------------------------------------------------------------------
class PerQuantumContext(UserContext):
    """``compute`` exactly as it was before lazy time-slicing."""

    #: Times a process held the core for a whole quantum that nobody
    #: else wanted (queue empty when granted and still empty at the
    #: boundary), with no signal or freeze waiting for that boundary
    #: and more of the same compute to follow: the lazy implementation
    #: must then get by with fewer events.
    lone_pairs = 0

    def compute(self, demand, dirty_bytes_per_second=0.0):
        if demand < 0:
            raise ValueError(f"negative CPU demand: {demand}")
        pcb = self.pcb
        kernels = self._kernels
        remaining = demand
        while remaining > 1e-9:
            if pcb.vm.page_in_debt > 0:
                yield from self._settle_vm_debt()
            kernel = kernels[pcb.current]
            cpu = kernel.cpu
            sim = kernel.sim
            slice_len = min(cpu.quantum, remaining / cpu.speed)
            consumed = 0.0
            cpu.runnable += 1
            pcb.interruptible = True
            unhurried = (
                not pcb.pending_signals and pcb.migration_ticket is None
            )
            try:
                yield cpu.core.acquire()
                started = sim.now
                alone = unhurried and not cpu.core._queue
                try:
                    yield Sleep(slice_len)
                    consumed = slice_len * cpu.speed
                    if (alone and not cpu.core._queue
                            and remaining - consumed > 1e-9):
                        PerQuantumContext.lone_pairs += 1
                except Interrupted as intr:
                    consumed = (sim.now - started) * cpu.speed
                    self._on_interrupt(intr)
                finally:
                    cpu.core.release()
            except Interrupted as intr:
                self._on_interrupt(intr)
            finally:
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


def main_program(proc, steps, boundary, spawn_at_home, log):
    """The process under test: ``steps`` in order, logging after each."""
    proc.catch_signal(sig.SIGUSR1)
    yield from proc.use_memory(MB)
    for index, step in enumerate(steps):
        kind = step[0]
        if kind == "compute":
            _, quanta, rate = step
            if index == 0 and boundary is not None:
                spawn(proc.sim,
                      _boundary_arrival(proc.sim, boundary, spawn_at_home, log))
            yield from proc.compute(quanta * QUANTUM, rate)
        elif kind == "migrate":
            try:
                yield from proc.migrate(step[1])
            except RpcError as refused:  # e.g. an image is being written
                log.append(("migrate-refused", type(refused).__name__))
        elif kind == "sleep":
            yield from proc.sleep(step[1] * QUANTUM)
        log.append((kind, proc.now, proc.pcb.current, proc.pcb.cpu_time,
                    proc.pcb.vm.dirty, tuple(proc.signals_seen())))
    return 0


def _boundary_arrival(sim, boundary, spawn_at_home, log):
    """Start a competitor at exactly the ``b``-th quantum boundary of
    the compute that begins now, from an event scheduled in the middle
    of the quantum before it."""
    b, quanta = boundary
    arrival = boundary_after(sim.now, b)
    yield Sleep((b - 0.5) * QUANTUM)
    sim.schedule_at(
        arrival, spawn_at_home, lone_compute, quanta * QUANTUM, 0.0, log,
    )


def disturbance(cluster, injector, pcb, event, log):
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
        yield from hosts[host].cpu.core.hold(seconds)
    elif kind == "signal":
        yield from hosts[0].kernel.signal(pcb.pid, args[0])
    elif kind == "taskkill":
        if pcb.task is not None:
            pcb.task.interrupt()
    elif kind == "migrate":
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


def readings(cluster, pcb):
    """What a reader outside the process may look at, mid-run or after."""
    listing = [host.kernel.ps() for host in cluster.hosts]  # syncs each cpu
    return {
        "now": cluster.sim.now,
        "ps": listing,
        "cpu_seconds": cluster.total_cpu_seconds(),
        "total_demand": [h.cpu.total_demand for h in cluster.hosts],
        "busy_time": [h.cpu.core.busy_time for h in cluster.hosts],
        "utilization": [h.cpu.utilization() for h in cluster.hosts],
        "cpu_time": pcb.cpu_time,
        "dirty": (pcb.vm.dirty, pcb.vm.resident),
        "state": (pcb.state, pcb.current),
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
        steps = [
            ("migrate", cluster.hosts[s[1]].address) if s[0] == "migrate" else s
            for s in scenario["steps"]
        ]
        program_args = (
            steps, scenario["boundary"], cluster.hosts[0].spawn_process, log,
        )
        pcb, _ = cluster.hosts[0].spawn_process(
            main_program, *program_args, name="main"
        )
        service = None
        if scenario["checkpoint"] is not None:
            interval, mode = scenario["checkpoint"]
            service = CheckpointService(
                cluster, injector=injector, interval=interval * QUANTUM,
                mode=mode,
            )
            service.register(pcb, main_program, *program_args)
        for event in scenario["events"]:
            spawn(cluster.sim, disturbance(cluster, injector, pcb, event, log),
                  daemon=True)
        stops = []
        for stop in scenario["stops"]:
            cluster.run(until=stop * QUANTUM)
            stops.append(readings(cluster, pcb))
        cluster.run(until=scenario["horizon"] * QUANTUM)
        images = []
        if service is not None:
            images = [
                (im.seq, im.mode, im.taken_at, im.progress, im.image_bytes,
                 im.intact)
                for im in service.store.images.get(pcb.pid, [])
            ]
        return {
            "log": log,
            "stops": stops,
            "final": readings(cluster, pcb),
            "images": images,
            "migrations": [
                (r.pid, r.source, r.target, r.started, r.total_time, r.refused)
                for r in cluster.migration_records()
            ],
            "trace": trace_fingerprint(cluster.tracer),
            "trace_records": len(cluster.tracer.records),
        }, cluster.sim.events_fired


def assert_same_simulation(scenario):
    PerQuantumContext.lone_pairs = 0
    expected, reference_events = run_scenario(scenario, PerQuantumContext)
    lone_pairs = PerQuantumContext.lone_pairs
    actual, events = run_scenario(scenario, UserContext)
    for key in expected:
        assert actual[key] == expected[key], key
    assert events <= reference_events
    if lone_pairs:
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
    kinds = st.one_of(
        st.tuples(st.just("compete"), hosts, quanta, RATES),
        st.tuples(st.just("consume"), hosts, CHARGES),
        st.tuples(st.just("hold"), hosts, CHARGES),
        st.tuples(st.just("signal"),
                  st.sampled_from([sig.SIGUSR1, sig.SIGUSR1, sig.SIGTERM])),
        st.tuples(st.just("taskkill")),
        st.tuples(st.just("migrate"), hosts),
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
    boundary = draw(st.none() | st.tuples(st.integers(1, 40), quanta))
    checkpoint = draw(st.none() | st.tuples(
        st.floats(min_value=20.0, max_value=200.0),
        st.sampled_from(["full", "incremental"]),
    ))
    stops = sorted(draw(st.lists(
        st.floats(min_value=1.0, max_value=500.0), max_size=2,
    )))
    return {
        "speeds": [draw(SPEEDS) for _ in range(nhosts)],
        "steps": steps,
        "events": events,
        "boundary": boundary,
        "checkpoint": checkpoint,
        "stops": stops,
        "horizon": 4000.0,
    }


def scenario(steps, events=(), boundary=None, checkpoint=None, stops=(),
             speeds=(1.0, 1.0)):
    return {
        "speeds": list(speeds), "steps": list(steps), "events": list(events),
        "boundary": boundary, "checkpoint": checkpoint, "stops": list(stops),
        "horizon": 4000.0,
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenarios())
@example(scenario([("compute", 100.0, 0.0)]))
@example(scenario([("compute", 250.5, 2.0e5)], speeds=(0.5, 2.0)))
@example(scenario([("compute", 120.0, 2.0e5)], boundary=(7, 30.0)))
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
def test_lazy_slicing_matches_the_per_quantum_reference(scenario):
    assert_same_simulation(scenario)


def test_reference_and_lazy_contexts_really_differ():
    """Guard the harness itself: the patched class is the one that runs,
    the trace compared is not empty, and the lazy run of a lone 1 s
    compute needs far fewer events."""
    lone = scenario([("compute", 100.0, 0.0), ("migrate", 1)])
    PerQuantumContext.lone_pairs = 0
    observed, reference_events = run_scenario(lone, PerQuantumContext)
    assert PerQuantumContext.lone_pairs == 99
    assert observed["trace_records"] > 0
    assert [entry[0] for entry in observed["log"]] == ["compute", "migrate"]
    _, events = run_scenario(lone, UserContext)
    assert reference_events - events > 150


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
