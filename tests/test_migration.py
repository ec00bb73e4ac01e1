"""Tests for the migration mechanism: transparency, policies, eviction."""

from collections import Counter
from unittest import mock

import pytest

from repro import SpriteCluster
from repro import cluster as cluster_module
from repro.faults import trace_fingerprint
from repro.fs import OpenMode
from repro.kernel import signals as sig
from repro.migration import EvictionDaemon, MigrationRefused
from repro.sim import Sleep, Task


def make_cluster(n=3, **kwargs):
    return SpriteCluster(workstations=n, start_daemons=False, **kwargs)


def migrate_driver(cluster, pcb, target_host, reason="manual", out=None):
    """A task that migrates ``pcb`` to ``target_host`` after a beat."""
    manager = cluster.managers[pcb.current]

    def driver():
        yield Sleep(0.5)
        record = yield from manager.migrate(pcb, target_host.address, reason=reason)
        if out is not None:
            out.append(record)

    return driver()


def test_migrated_process_finishes_on_target():
    cluster = make_cluster()
    src, dst = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.compute(3.0)
        return proc.pcb.current

    pcb, _ = src.spawn_process(job, name="job")
    records = []
    from repro.sim import spawn

    spawn(cluster.sim, migrate_driver(cluster, pcb, dst, out=records), name="driver")
    final_host = cluster.run_until_complete(pcb.task)
    assert final_host == dst.address
    assert len(records) == 1
    assert records[0].freeze_time > 0
    assert records[0].pid == pcb.pid


def test_cpu_charged_on_target_after_migration():
    cluster = make_cluster()
    src, dst = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.compute(4.0)

    pcb, _ = src.spawn_process(job, name="job")
    from repro.sim import spawn

    spawn(cluster.sim, migrate_driver(cluster, pcb, dst), name="driver")
    cluster.run_until_complete(pcb.task)
    # ~0.5s ran at the source; the remaining ~3.5s at the target.
    assert src.cpu.total_demand == pytest.approx(0.5, abs=0.3)
    assert dst.cpu.total_demand >= 3.0


def test_transparency_gethostname_reports_home():
    cluster = make_cluster()
    src, dst = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.compute(2.0)
        name = yield from proc.gethostname()
        return (name, proc.pcb.current)

    pcb, _ = src.spawn_process(job, name="job")
    from repro.sim import spawn

    spawn(cluster.sim, migrate_driver(cluster, pcb, dst), name="driver")
    name, where = cluster.run_until_complete(pcb.task)
    assert where == dst.address      # physically on the target...
    assert name == src.name          # ...but transparently "at home"


def test_forwarded_calls_counted():
    cluster = make_cluster()
    src, dst = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.compute(1.0)
        for _ in range(5):
            yield from proc.gettimeofday()
        return 0

    pcb, _ = src.spawn_process(job, name="job")
    from repro.sim import spawn

    spawn(cluster.sim, migrate_driver(cluster, pcb, dst), name="driver")
    cluster.run_until_complete(pcb.task)
    assert dst.kernel.calls_forwarded_home >= 5


def test_home_ps_shows_migrated_shadow():
    cluster = make_cluster()
    src, dst = cluster.hosts[0], cluster.hosts[1]
    snapshots = {}

    def job(proc):
        yield from proc.compute(3.0)

    def observer(proc, pid):
        yield from proc.compute(1.5)
        listing = yield from proc.ps()
        snapshots["home"] = {
            entry["pid"]: entry["state"] for entry in listing
        }.get(pid)
        return 0

    pcb, _ = src.spawn_process(job, name="job")
    obs_pcb, _ = src.spawn_process(observer, pcb.pid, name="obs")
    from repro.sim import spawn

    spawn(cluster.sim, migrate_driver(cluster, pcb, dst), name="driver")
    cluster.run_until_complete(pcb.task)
    cluster.run_until_complete(obs_pcb.task)
    assert snapshots["home"] == "migrated"


def test_open_file_survives_migration_with_offset():
    cluster = make_cluster()
    src, dst = cluster.hosts[0], cluster.hosts[1]
    cluster.add_file("/data", size=1_000_000)

    def job(proc):
        fd = yield from proc.open("/data", OpenMode.READ)
        yield from proc.read(fd, 100_000)
        yield from proc.compute(2.0)      # migration happens here
        more = yield from proc.read(fd, 100_000)
        offset = proc.pcb.stream(fd).offset
        yield from proc.close(fd)
        return (more, offset)

    pcb, _ = src.spawn_process(job, name="job")
    from repro.sim import spawn

    spawn(cluster.sim, migrate_driver(cluster, pcb, dst), name="driver")
    more, offset = cluster.run_until_complete(pcb.task)
    assert more == 100_000
    assert offset == 200_000


def test_dirty_file_blocks_flushed_at_migration():
    cluster = make_cluster()
    src, dst = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        fd = yield from proc.open("/wlog", OpenMode.WRITE | OpenMode.CREATE)
        yield from proc.write(fd, 64 * 1024)
        yield from proc.compute(2.0)      # migration here
        yield from proc.write(fd, 4096)
        yield from proc.close(fd)
        return 0

    pcb, _ = src.spawn_process(job, name="job")
    from repro.sim import spawn

    spawn(cluster.sim, migrate_driver(cluster, pcb, dst), name="driver")
    cluster.run_until_complete(pcb.task)
    # The 64 KB written before migration was flushed to the server.
    assert cluster.file_server.bytes_written >= 64 * 1024


def test_remote_fork_and_wait():
    cluster = make_cluster()
    src, dst = cluster.hosts[0], cluster.hosts[1]

    def child(proc):
        yield from proc.compute(0.3)
        yield from proc.exit(9)

    def parent(proc):
        yield from proc.compute(2.0)      # migrates mid-way
        child_pid = yield from proc.fork(child, name="kid")
        status = yield from proc.wait()
        return (child_pid, status.code, proc.pcb.current)

    pcb, _ = src.spawn_process(parent, name="parent")
    from repro.sim import spawn
    from repro.kernel import home_of_pid

    spawn(cluster.sim, migrate_driver(cluster, pcb, dst), name="driver")
    child_pid, code, where = cluster.run_until_complete(pcb.task)
    assert code == 9
    assert where == dst.address
    # Child's pid was allocated by the parent's home kernel.
    assert home_of_pid(child_pid) == src.address


def test_signal_routed_to_migrated_process():
    cluster = make_cluster()
    src, dst, other = cluster.hosts[0], cluster.hosts[1], cluster.hosts[2]

    def victim(proc):
        yield from proc.compute(50.0)

    def killer(proc, pid):
        yield from proc.compute(3.0)     # after the victim has migrated
        yield from proc.kill(pid, sig.SIGTERM)

    pcb, _ = src.spawn_process(victim, name="victim")
    other.spawn_process(killer, pcb.pid, name="killer")
    from repro.sim import spawn

    spawn(cluster.sim, migrate_driver(cluster, pcb, dst), name="driver")
    code = cluster.run_until_complete(pcb.task)
    assert code == 128 + sig.SIGTERM
    assert pcb.current == dst.address


def test_double_migration_updates_home():
    cluster = make_cluster()
    a, b, c = cluster.hosts[0], cluster.hosts[1], cluster.hosts[2]

    def job(proc):
        yield from proc.compute(6.0)
        return proc.pcb.current

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        yield Sleep(0.5)
        yield from cluster.managers[a.address].migrate(pcb, b.address)
        yield Sleep(2.0)
        yield from cluster.managers[b.address].migrate(pcb, c.address)

    from repro.sim import spawn

    spawn(cluster.sim, driver(), name="driver")
    final = cluster.run_until_complete(pcb.task)
    assert final == c.address
    # Home shadow tracked the second hop.
    shadow = a.kernel.procs[pcb.pid]
    # By completion the process exited; the shadow became a zombie with
    # the exit recorded from host c.
    assert shadow.exit_status.exit_host == c.address
    # No residual state on the intermediate host.
    assert pcb.pid not in b.kernel.procs


def test_migrate_back_home_clears_shadow():
    cluster = make_cluster()
    a, b = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.compute(4.0)
        return proc.pcb.current

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        yield Sleep(0.5)
        yield from cluster.managers[a.address].migrate(pcb, b.address)
        yield Sleep(1.0)
        yield from cluster.managers[b.address].migrate(pcb, a.address, reason="eviction")

    from repro.sim import spawn

    spawn(cluster.sim, driver(), name="driver")
    final = cluster.run_until_complete(pcb.task)
    assert final == a.address
    entry = a.kernel.procs[pcb.pid]
    assert entry is pcb  # resident object back home, shadow replaced
    assert pcb.pid not in b.kernel.procs


def test_version_mismatch_refused():
    """A1 ablation: kernels advertising different migration versions
    refuse to migrate rather than corrupt state (thesis §4.5)."""
    cluster = make_cluster()
    a, b = cluster.hosts[0], cluster.hosts[1]
    # Host b runs an "older kernel": its negotiate answers with the old
    # version number, which the protocol rejects.
    manager_b = cluster.managers[b.address]
    old_version = cluster.params.migration_version - 1

    def old_negotiate(args):
        if args["version"] != old_version:
            return {
                "accept": False,
                "why": f"migration version mismatch: theirs {args['version']}, ours {old_version}",
            }
        return {"accept": True}
        yield  # pragma: no cover

    manager_b.host.rpc.register("mig.negotiate", old_negotiate)

    def job(proc):
        yield from proc.compute(2.0)
        return 0

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        yield Sleep(0.2)
        try:
            yield from cluster.managers[a.address].migrate(pcb, b.address)
        except MigrationRefused as refusal:
            return f"refused: {refusal}"
        return "accepted"

    from repro.sim import spawn

    driver_task = spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(pcb.task)
    assert driver_task.result.startswith("refused")
    assert "version mismatch" in driver_task.result
    refusals = [r for r in cluster.migration_records() if r.refused]
    assert len(refusals) == 1


def test_accept_hook_can_refuse_foreign_work():
    cluster = make_cluster()
    a, b = cluster.hosts[0], cluster.hosts[1]
    cluster.managers[b.address].accept_hook = lambda args: False

    def job(proc):
        yield from proc.compute(1.0)
        return 0

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        yield Sleep(0.2)
        try:
            yield from cluster.managers[a.address].migrate(pcb, b.address)
        except MigrationRefused:
            return "refused"

    from repro.sim import spawn

    driver_task = spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(pcb.task)
    assert driver_task.result == "refused"


def test_home_always_accepts_eviction_despite_hook():
    cluster = make_cluster()
    a, b = cluster.hosts[0], cluster.hosts[1]
    # Even with a refuse-everything hook, home must accept its own.
    cluster.managers[a.address].accept_hook = lambda args: False

    def job(proc):
        yield from proc.compute(4.0)
        return proc.pcb.current

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        yield Sleep(0.2)
        yield from cluster.managers[a.address].migrate(pcb, b.address)
        yield Sleep(1.0)
        yield from cluster.managers[b.address].migrate(pcb, a.address, reason="eviction")

    from repro.sim import spawn

    spawn(cluster.sim, driver(), name="driver")
    assert cluster.run_until_complete(pcb.task) == a.address


def test_shared_writable_memory_not_migratable():
    cluster = make_cluster()
    a, b = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.compute(2.0)

    pcb, _ = a.spawn_process(job, name="job")
    pcb.vm.shared_writable = True

    def driver():
        yield Sleep(0.2)
        try:
            yield from cluster.managers[a.address].migrate(pcb, b.address)
        except MigrationRefused:
            return "refused"

    from repro.sim import spawn

    driver_task = spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(pcb.task)
    assert driver_task.result == "refused"


def test_exec_time_migration_skips_vm():
    cluster = make_cluster()
    a, b = cluster.hosts[0], cluster.hosts[1]
    cluster.standard_images()

    def remote_main(proc, token):
        yield from proc.compute(0.5)
        return (token, proc.pcb.current)

    def launcher(proc):
        yield from proc.use_memory(4 * 1024 * 1024)   # big image, then exec
        yield from proc.exec(
            remote_main, "hello", host=b.address, image_path="/bin/sim"
        )

    pcb, _ = a.spawn_process(launcher, name="launcher")
    token, where = cluster.run_until_complete(pcb.task)
    assert token == "hello"
    assert where == b.address
    records = cluster.migration_records()
    assert len(records) == 1
    assert records[0].reason == "exec"
    assert records[0].vm is None  # no VM moved


def test_eviction_sends_foreign_work_home():
    cluster = make_cluster()
    a, b = cluster.hosts[0], cluster.hosts[1]
    evictor_b = cluster.evictors[1]
    from repro.sim import spawn

    def job(proc):
        yield from proc.compute(10.0)
        return proc.pcb.current

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        yield Sleep(0.5)
        yield from cluster.managers[a.address].migrate(pcb, b.address)

    def user_returns():
        yield Sleep(3.0)
        b.user_input()
        event = yield from evictor_b.evict_now()
        return event

    spawn(cluster.sim, driver(), name="driver")
    evict_task = spawn(cluster.sim, user_returns(), name="evict")
    final = cluster.run_until_complete(pcb.task)
    assert final == a.address   # finished back at home
    event = evict_task.result
    assert event.victims == 1
    assert event.reclaim_seconds >= 0


def test_eviction_daemon_triggers_on_user_input():
    cluster = SpriteCluster(workstations=2, start_daemons=True)
    a, b = cluster.hosts[0], cluster.hosts[1]
    from repro.sim import spawn

    def job(proc):
        yield from proc.compute(30.0)
        return proc.pcb.current

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        yield Sleep(0.5)
        yield from cluster.managers[a.address].migrate(pcb, b.address)
        yield Sleep(5.0)
        b.user_input()   # the daemon notices within its poll period

    spawn(cluster.sim, driver(), name="driver")
    final = cluster.run_until_complete(pcb.task)
    assert final == a.address
    assert len(cluster.evictors[1].events) == 1


class SleepingEvictionDaemon(EvictionDaemon):
    """The reference: the daemon's task sleeps one poll period, wakes
    and asks, at every poll."""

    def _watch(self):
        while True:
            yield Sleep(self.poll_period)
            newer = self.host.last_input > self._last_seen_input
            if newer:
                self._last_seen_input = self.host.last_input
            returned = self.host.user_present or newer
            if returned and self.manager.kernel.foreign_pcbs():
                try:
                    yield from self.evict_now()
                except Exception:  # noqa: BLE001 - as the daemon does
                    self.failed_evictions += 1


class PerHostTimers:
    """The reference for the cluster's :class:`~repro.sim.Ticker`: every
    member on a self-rescheduling timer of its own, started in member
    order, and no poll ever joins (each arms its own timer)."""

    def __init__(self, sim, period):
        self.sim = sim
        self.period = period

    def start(self, members):
        for fn in members:
            self.sim.schedule(self.period, self._tick, fn)

    def _tick(self, fn):
        if not fn():
            self.sim.schedule(self.period, self._tick, fn)

    def join(self, fn, period):
        return False


def _outcome(cluster):
    """What an observer of a run sees, floats compared bit for bit."""
    return {
        "trace": trace_fingerprint(cluster.tracer),
        "load": [(host.loadavg.value.hex(), host.loadavg.bias.hex())
                 for host in cluster.hosts],
        "evictions": [event for evictor in cluster.evictors
                      for event in evictor.events],
        "where": sorted(
            (address, pid, pcb.state.name, pcb.current, pcb.cpu_time.hex())
            for address, kernel in cluster.kernels.items()
            for pid, pcb in kernel.procs.items()
        ),
    }


def _split_window(timers, sample_period=None):
    """60 s of eight hosts: jobs from ws0 and ws1 migrate to ws3 and
    ws5 at 0.5 s, and those owners come back at 5.3 s and 12.7 s, so
    each eviction takes a poll out of the middle of the ticker's run.
    With ``sample_period`` a metrics sampler is armed after the ticker
    and before any poll binds."""
    from repro.sim import spawn

    with mock.patch.object(cluster_module, "Ticker", timers):
        cluster = SpriteCluster(workstations=8, start_daemons=True, trace=True)
    if sample_period is not None:
        cluster.observability(sample_period=sample_period)
    hosts = cluster.hosts

    def job(proc):
        yield from proc.compute(30.0)
        return proc.pcb.current

    pcbs = [hosts[i].spawn_process(job, name=f"job{i}")[0] for i in (0, 1)]

    def owners():
        yield Sleep(0.5)
        for pcb, target in zip(pcbs, (hosts[3], hosts[5])):
            yield from cluster.managers[pcb.current].migrate(pcb, target.address)
        yield Sleep(5.3 - cluster.sim.now)
        hosts[3].user_input()
        yield Sleep(12.7 - cluster.sim.now)
        hosts[5].user_input()

    spawn(cluster.sim, owners(), name="owners")
    cluster.run(until=60.0)
    assert [len(evictor.events) for evictor in cluster.evictors] == \
        [0, 0, 0, 1, 0, 1, 0, 0]
    return cluster


def _placement_baseline(timers):
    """E11's placement baseline, traced: ``poll_period = 1e12``."""
    from repro.baselines import placement

    clusters = []

    def traced(**kwargs):
        clusters.append(SpriteCluster(trace=True, **kwargs))
        return clusters[-1]

    with mock.patch.object(placement, "SpriteCluster", traced), \
            mock.patch.object(cluster_module, "Ticker", timers):
        placement.run_placement_scenario("placement")
    return clusters[0]


@pytest.mark.parametrize("scenario, saved", [
    # Eight samples a second cost one event, not eight: 7 x 60.  The
    # six idle hosts' polls fire in it too (6 x 60), and so do ws3's
    # first 6 and ws5's first 13; the polls after an eviction keep
    # timers of their own.  Each split costs one event, for the second
    # after it, before the run is whole again.
    ("split", 7 * 60 + 6 * 60 + 6 + 13 - 2),
    # The sampler is queued behind the ticker at the first instant, so
    # every poll keeps its own timer: only the samples are batched.
    ("sampled", 7 * 60),
    # Polls every 1e12 s never join; six samplers share one event for
    # the 168 s the batch runs.
    ("placement", 5 * 168),
])
def test_ticker_is_exact_against_per_host_timers(scenario, saved):
    """One event a second for the whole cluster changes nothing but the
    event count: the same trace, load averages, evictions and final
    placement as a timer per sampler and per poll."""
    from repro.sim import Ticker

    build = {
        "split": _split_window,
        "sampled": lambda timers: _split_window(timers, sample_period=1.0),
        "placement": _placement_baseline,
    }[scenario]
    ticked = build(Ticker)
    timed = build(PerHostTimers)
    assert _outcome(ticked) == _outcome(timed)
    assert timed.sim.events_fired - ticked.sim.events_fired == saved


def _owner_returns(daemon_cls):
    """100 s of a three-host cluster with every daemon running: a job
    migrates from ws0 to ws1 at 0.5 s and ws1's owner types at about
    5.3 s.  Returns what an observer sees and how often each
    ``evictiond`` task was resumed."""
    from repro.sim import spawn

    resumes = Counter()

    def counting(entry):
        # A task's generator runs once per call of ``_resume`` that
        # finds the task not done (``_throw`` and ``_sleep_fire`` go
        # through it).
        def counted(task, *args):
            if not task.done and task.name.startswith("evictiond:"):
                resumes[task.name] += 1
            return entry(task, *args)
        return counted

    with mock.patch.object(cluster_module, "EvictionDaemon", daemon_cls), \
            mock.patch.object(Task, "_resume", counting(Task._resume)):
        cluster = SpriteCluster(workstations=3, start_daemons=True, trace=True)
        a, b = cluster.hosts[0], cluster.hosts[1]

        def job(proc):
            yield from proc.compute(30.0)
            return proc.pcb.current

        pcb, _ = a.spawn_process(job, name="job")

        def owner():
            yield Sleep(0.5)
            yield from cluster.managers[a.address].migrate(pcb, b.address)
            yield Sleep(5.3 - cluster.sim.now)
            b.user_input()

        spawn(cluster.sim, owner(), name="owner")
        cluster.run(until=100.0)
    observed = {
        "evictions": [(e.time, e.victims, e.reclaim_seconds)
                      for e in cluster.evictors[1].events],
        "where": (pcb.state, pcb.current, pcb.cpu_time),
        "trace": trace_fingerprint(cluster.tracer),
        "events": cluster.sim.events_fired,
    }
    return observed, resumes


def test_eviction_polls_without_resuming_the_daemon_task():
    """A poll that finds nothing to do resumes no task: over 100 s the
    idle hosts' ``evictiond`` tasks run once, at their start, where the
    reference's ran at every one of 100 polls.  The owner's return is
    still seen by the first poll after the input, at 6 s, and the run is
    the reference's in all it shows.  Only its event count differs: the
    polls that ride the cluster's ticker cost no event of their own."""
    observed, resumes = _owner_returns(EvictionDaemon)
    expected, reference_resumes = _owner_returns(SleepingEvictionDaemon)
    events, reference_events = observed.pop("events"), expected.pop("events")
    assert observed == expected
    # ws0's and ws2's 100 polls and ws1's first 6 fire in the ticker's
    # event; ws1's eviction splits its run for one second.
    assert reference_events - events == 2 * 100 + 6 - 1
    assert [e[:2] for e in observed["evictions"]] == [(6.0, 1)]
    assert resumes["evictiond:ws0"] == resumes["evictiond:ws2"] == 1
    assert reference_resumes["evictiond:ws0"] == 101
    # ws1 polls at 1, 2, ..., 6 s, evicts in under a second and polls
    # again a period after that: 99 polls in all.  Both tasks ran at
    # their start and through the eviction; the reference's also ran at
    # the 98 polls that found nothing to do.
    assert 0.0 < observed["evictions"][0][2] < 1.0
    assert reference_resumes["evictiond:ws1"] - resumes["evictiond:ws1"] == 98


def test_migration_record_stream_count():
    cluster = make_cluster()
    a, b = cluster.hosts[0], cluster.hosts[1]
    for i in range(4):
        cluster.add_file(f"/in{i}", size=1024)

    def job(proc):
        fds = []
        for i in range(4):
            fd = yield from proc.open(f"/in{i}", OpenMode.READ)
            fds.append(fd)
        yield from proc.compute(2.0)
        for fd in fds:
            yield from proc.close(fd)
        return 0

    pcb, _ = a.spawn_process(job, name="job")
    records = []
    from repro.sim import spawn

    spawn(cluster.sim, migrate_driver(cluster, pcb, b, out=records), name="driver")
    cluster.run_until_complete(pcb.task)
    assert records[0].streams_moved == 4


def test_kill_during_freeze_delivered_after_resume():
    """A signal arriving while the process is frozen waits for the
    transfer and kills it on the target (Sprite queues signals for
    migrating processes)."""
    cluster = make_cluster(2)
    a, b = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.use_memory(4 * 1024 * 1024)
        yield from proc.dirty_memory(4 * 1024 * 1024)   # slow freeze
        yield from proc.compute(60.0)
        return proc.pcb.current

    pcb, _ = a.spawn_process(job, name="victim")
    from repro.kernel import signals as ksig

    def driver():
        yield Sleep(0.5)
        yield from cluster.managers[a.address].migrate(pcb, b.address)

    def killer():
        # Mid-freeze: the 4 MB flush takes seconds.
        yield Sleep(1.5)
        assert pcb.migration_ticket is not None or pcb.current == b.address
        pcb.pending_signals.append(ksig.SIGTERM)

    from repro.sim import spawn as sim_spawn

    sim_spawn(cluster.sim, driver(), name="driver")
    sim_spawn(cluster.sim, killer(), name="killer")
    code = cluster.run_until_complete(pcb.task)
    assert code == 128 + ksig.SIGTERM
    # It died *after* installation on the target.
    assert pcb.current == b.address


@pytest.mark.parametrize("call", ["getpid", "getppid", "getuid"])
def test_process_looping_on_a_cheap_call_can_be_frozen(call):
    """Every kernel call ends at a safe point, the ones that touch
    nothing but the PCB included: a process that only asks who it is
    can still be frozen and moved from outside."""
    cluster = make_cluster(2)
    a, b = cluster.hosts[0], cluster.hosts[1]
    calls = {a.address: 0, b.address: 0}

    def job(proc):
        while proc.now < 1.0:
            yield from getattr(proc, call)()
            calls[proc.pcb.current] += 1
        return proc.pcb.current

    pcb, _ = a.spawn_process(job, name="who-am-i")
    records, requested_after = [], []

    def driver():
        yield Sleep(0.5)
        requested_after.append(calls[a.address])
        records.append(
            (yield from cluster.managers[a.address].migrate(pcb, b.address))
        )

    from repro.sim import spawn

    spawn(cluster.sim, driver(), name="driver")
    assert cluster.run_until_complete(pcb.task) == b.address
    assert not records[0].refused
    # Negotiating with the target takes ~2 ms, a dozen calls; once the
    # freeze is requested the very next call parks.  (Without a safe
    # point the loop would run its other 5,000 calls at the source.)
    assert calls[a.address] - requested_after[0] <= 50
    assert calls[b.address] > 0


# ----------------------------------------------------------------------
# Transactional abort paths: partial exports, lease expiry, repair
# ----------------------------------------------------------------------
def test_partial_stream_export_failure_rolls_back_exported_streams():
    """If the Nth stream export fails mid-loop, the N-1 already-exported
    references are pulled back: the process keeps running at the source
    with every stream usable, and the transaction journal drains."""
    from repro.fs import FsError

    cluster = make_cluster()
    a, b = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        fd1 = yield from proc.open("/a", OpenMode.WRITE | OpenMode.CREATE)
        fd2 = yield from proc.open("/b", OpenMode.WRITE | OpenMode.CREATE)
        yield from proc.compute(5.0)
        # Both streams must still work after the failed migration.
        yield from proc.write(fd1, 100)
        yield from proc.write(fd2, 100)
        yield from proc.close(fd1)
        yield from proc.close(fd2)
        return 0

    pcb, _ = a.spawn_process(job, name="job")
    cluster.run(until=1.0)
    stream_ids = sorted(s.stream_id for s in pcb.streams.values())
    assert len(stream_ids) == 2

    real_export = a.fs.export_stream
    calls = {"n": 0}

    def flaky_export(stream, to_client):
        calls["n"] += 1
        if calls["n"] == 2:
            def boom():
                raise FsError("injected export failure")
                yield  # pragma: no cover - makes this a generator
            return boom()
        return real_export(stream, to_client)

    a.fs.export_stream = flaky_export
    manager = cluster.managers[a.address]
    refusals = []

    def driver():
        try:
            yield from manager.migrate(pcb, b.address, reason="manual")
        except MigrationRefused as err:
            refusals.append(str(err))
        a.fs.export_stream = real_export

    from repro.sim import spawn

    spawn(cluster.sim, driver(), name="driver")
    code = cluster.run_until_complete(pcb.task)

    assert code == 0
    assert refusals and "stream export" in refusals[0]
    assert pcb.current == a.address
    # The first export was rolled back: nothing was left addressed to
    # the target, and the journal kept no open transaction behind.
    assert manager.journal.open_txns() == []
    assert manager.rollback_incomplete == 0
    server = cluster.server_hosts[0].server
    for path in ("/a", "/b"):
        for refs in server.files[path].stream_refs.values():
            assert b.address not in refs


def test_aborted_transfer_ticket_expires_and_reclaims_reservation():
    """Source dies right after mig.install: the target's inactive copy
    sits under its lease (memory reserved) until the TTL reaps it, and
    a late duplicate mig.install for the same (pid, ticket) is refused
    without disturbing anything."""
    cluster = make_cluster()
    a, b, c = cluster.hosts[0], cluster.hosts[1], cluster.hosts[2]

    def job(proc):
        yield from proc.compute(500.0)
        return 0

    pcb, _ = a.spawn_process(job, name="job")
    pcb.vm.size = 1 << 20
    src_manager = cluster.managers[a.address]
    dst_manager = cluster.managers[b.address]
    outcomes = []

    def kill_source(txn, step):
        if step == "shipped":
            a.crash()  # never rebooted: the lease must die by expiry

    src_manager.journal.on_step = kill_source

    def driver():
        yield Sleep(0.5)
        try:
            yield from src_manager.migrate(pcb, b.address, reason="manual")
        except MigrationRefused as err:
            outcomes.append(type(err).__name__)

    from repro.migration import MigrationAbandoned
    from repro.sim import spawn

    spawn(cluster.sim, driver(), name="driver")
    cluster.run(until=3.0)
    src_manager.journal.on_step = None

    assert outcomes == ["MigrationAbandoned"]
    assert MigrationAbandoned is not None
    # The inactive copy is leased and its memory reserved...
    (lease,) = dst_manager.leases.held()
    assert lease.status == "installed"
    assert lease.pcb is pcb
    assert dst_manager.leases.reserved_bytes == 1 << 20
    expires = lease.expires
    ticket_id = lease.ticket_id

    # ...until the TTL passes: reaped, reservation reclaimed, and the
    # copy never activated (no second runnable copy ever existed).
    cluster.run(until=expires + 1.0)
    assert dst_manager.leases.held() == []
    assert dst_manager.leases.reserved_bytes == 0
    assert pcb.pid not in b.kernel.procs

    # A late duplicate install (e.g. a retransmit that slept through the
    # outage) is rejected idempotently for the same (pid, ticket).
    replies = []

    def late_install():
        reply = yield from c.rpc.call(
            b.address, "mig.install",
            {"pcb": pcb, "pid": pcb.pid, "ticket": ticket_id,
             "streams": []},
        )
        replies.append(reply)

    spawn(cluster.sim, late_install(), name="late-install")
    cluster.run(until=cluster.sim.now + 5.0)
    assert replies and not replies[0]["installed"]
    assert "unknown or expired" in replies[0]["why"]
    assert dst_manager.leases.held() == []
    assert dst_manager.leases.reserved_bytes == 0


def test_rollback_retry_exhaustion_hands_off_to_repair():
    """When every rollback retry fails (source partitioned away from
    the file server), the abort is counted in ``rollback_incomplete``
    and a background repair task finishes the undo once the network
    heals — nothing stays leaked."""
    from repro.faults import FaultInjector

    cluster = make_cluster()
    injector = FaultInjector(cluster)
    a, b = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.open("/a", OpenMode.WRITE | OpenMode.CREATE)
        yield from proc.compute(500.0)
        return 0

    pcb, _ = a.spawn_process(job, name="job")
    cluster.run(until=1.0)
    manager = cluster.managers[a.address]
    refusals = []

    def cut_network(txn, step):
        # Fire after the stream left for the target: the install RPC
        # fails, and so does every undo RPC until the heal.
        if step == "streams_exported":
            injector.partition([a.address])

    manager.journal.on_step = cut_network

    def driver():
        try:
            yield from manager.migrate(pcb, b.address, reason="manual")
        except MigrationRefused as err:
            refusals.append(str(err))

    def healer():
        yield Sleep(20.0)
        injector.heal()

    from repro.sim import spawn

    spawn(cluster.sim, driver(), name="driver")
    spawn(cluster.sim, healer(), name="healer", daemon=True)
    cluster.run(until=15.0)
    manager.journal.on_step = None

    # Retries exhausted while partitioned: handed off to repair.
    assert refusals
    assert manager.rollback_incomplete == 1
    pending = [t for t in manager.journal.txns.values() if t.rollback_pending]
    assert len(pending) == 1

    # After the heal the repair daemon completes the undo.
    cluster.run(until=60.0)
    assert not any(t.rollback_pending for t in manager.journal.txns.values())
    assert manager.journal.open_txns() == []
    assert pcb.current == a.address
    # The stream reference is home again and still usable.
    stream = next(iter(pcb.streams.values()))
    assert stream.stream_id in a.fs.open_streams


def test_ring_whose_freeze_request_races_a_core_grant(monkeypatch):
    """The benchmark's ``migration_ring`` at the one seed in ~270 where a
    freeze request interrupts a process between being granted the core
    and resuming.  The wake-up the process armed in between used to stay
    armed, end the migration freeze early, and fail the next safe point
    with ``SimError: event 'parked:<pid>' triggered twice``."""
    import importlib
    import pathlib

    perf = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
    monkeypatch.syspath_prepend(str(perf))
    ring_class = importlib.import_module("workloads").WORKLOADS["migration_ring"]
    monkeypatch.setattr(ring_class, "SCENARIOS", 1 << 30)  # take the seed as given
    ring = ring_class(607, 0.5)
    ring.setup()
    ring.run()
    ring.finish()
    assert ring.failures == []
    assert ring.counters["migration.completed"] == ring.ops


# ----------------------------------------------------------------------
# One driver: entry-point parity and forward/recovery parity
# ----------------------------------------------------------------------
def _run_entry_point(entry, accept=True):
    """Move a process from host 0 to host 1 through one of the three
    public entry points; returns (cluster, pcb, what the mover saw, the
    steps the source journaled)."""
    from repro.sim import spawn

    cluster = make_cluster()
    src, dst = cluster.hosts[0], cluster.hosts[1]
    if not accept:
        cluster.managers[dst.address].accept_hook = lambda args: False
    seen = []
    journaled = []
    cluster.managers[src.address].journal.on_step = (
        lambda txn, step: journaled.append(step)
    )

    def after_exec(proc):
        yield from proc.compute(1.0)
        return 0

    def job(proc):
        yield from proc.compute(1.0)
        try:
            if entry == "migrate_self":
                yield from proc.migrate(dst.address)
            elif entry == "migrate_for_exec":
                yield from proc.exec(after_exec, host=dst.address)
        except MigrationRefused:
            seen.append("refused")
        yield from proc.compute(1.0)
        return 0

    pcb, _ = src.spawn_process(job, name="job")

    def outside():
        yield Sleep(0.5)
        try:
            yield from cluster.managers[src.address].migrate(pcb, dst.address)
        except MigrationRefused:
            seen.append("refused")

    if entry == "migrate":
        spawn(cluster.sim, outside(), name="driver")
    cluster.run_until_complete(pcb.task)
    return cluster, pcb, seen, journaled


ENTRY_POINTS = ["migrate", "migrate_self", "migrate_for_exec"]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_journals_the_whole_ladder_once(entry):
    from repro.migration import TXN_STEPS

    cluster, pcb, seen, journaled = _run_entry_point(entry)
    src, dst = cluster.hosts[0], cluster.hosts[1]
    manager = cluster.managers[src.address]
    assert seen == [] and pcb.current == dst.address
    assert journaled == list(TXN_STEPS)
    assert manager.journal.open_txns() == []
    (record,) = manager.records
    assert not record.refused and record.reason == {
        "migrate": "manual", "migrate_self": "self", "migrate_for_exec": "exec",
    }[entry]
    assert cluster.managers[dst.address].leases.held() == []


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_refused_at_negotiate_leaves_nothing_open(entry):
    cluster, pcb, seen, journaled = _run_entry_point(entry, accept=False)
    src, dst = cluster.hosts[0], cluster.hosts[1]
    manager = cluster.managers[src.address]
    assert seen == ["refused"] and pcb.current == src.address
    assert journaled == []
    assert manager.journal.open_txns() == []
    (record,) = manager.records
    assert record.refused
    assert record.detail["refusal"] == "host not accepting foreign work"
    assert cluster.managers[dst.address].leases.held() == []


def _end_state_after_source_crash(crash_after):
    """Migrate a process with a third-party home from ``a`` to ``b``;
    crash ``a`` right after it journals ``crash_after`` (None: never),
    reboot it, and report where everything ended up."""
    from repro.migration import MigrationAbandoned
    from repro.sim import spawn

    cluster = make_cluster()
    home, a, b = cluster.hosts
    manager = cluster.managers[a.address]

    def job(proc):
        yield from proc.compute(60.0)
        return 0

    pcb, _ = home.spawn_process(job, name="job")
    journaled = []

    def crash_source(txn, step):
        journaled.append(step)
        if step == crash_after:  # each step is journaled once
            a.crash()

    def reboot():
        yield Sleep(3.0)
        a.reboot()

    def driver():
        yield Sleep(0.5)
        yield from cluster.managers[home.address].migrate(pcb, a.address)
        manager.journal.on_step = crash_source
        try:
            yield from manager.migrate(pcb, b.address)
            return "migrated"
        except MigrationAbandoned:
            spawn(cluster.sim, reboot(), name="reboot")
            return "abandoned"

    task = spawn(cluster.sim, driver(), name="driver")
    cluster.run(until=30.0)
    outcome = task.result
    shadow = home.kernel.procs[pcb.pid]
    return outcome, {
        "steps": journaled,
        "open": manager.journal.open_txns(),
        "shadow": (shadow.state.name, shadow.current),
        "runs_at": pcb.current,
        "source_table": pcb.pid in a.kernel.procs,
        "leases": cluster.managers[b.address].leases.held(),
    }


@pytest.mark.parametrize("crash_after", ["committed", "detached", "home_updated"])
def test_recovery_resumes_the_forward_post_commit_duties(crash_after):
    """Whichever post-commit duty the source dies before, reboot-time
    recovery re-enters the same handlers at the first step the journal
    lacks and ends exactly where the uncrashed run ends."""
    from repro.migration import TXN_STEPS

    forward_outcome, forward = _end_state_after_source_crash(None)
    outcome, recovered = _end_state_after_source_crash(crash_after)
    assert (forward_outcome, outcome) == ("migrated", "abandoned")
    assert forward["steps"] == list(TXN_STEPS)
    assert forward["shadow"] == ("MIGRATED", forward["runs_at"])
    assert forward["open"] == [] and forward["leases"] == []
    assert recovered == forward
