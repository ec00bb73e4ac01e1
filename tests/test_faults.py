"""The chaos engine: plans, fabric, injector, invariants, determinism."""

import pytest

from repro import SpriteCluster
from repro.faults import (
    FaultInjector,
    FaultPlan,
    InvariantChecker,
    LinkFabric,
    run_chaos,
)
from repro.fs import OpenMode
from repro.kernel import ProcState, signals as sig
from repro.loadsharing import LoadSharingService
from repro.net import NetworkPartitionedError, Packet, rpc
from repro.sim import (
    RandomStreams, SimEvent, Simulator, Sleep, run_until_complete, spawn,
)

from . import golden_migration


# ----------------------------------------------------------------------
# Task.abort (the crash primitive)
# ----------------------------------------------------------------------
def test_task_abort_runs_finally_but_no_more_code():
    sim = Simulator()
    events = []

    def body():
        try:
            yield Sleep(10.0)
            events.append("resumed")
        finally:
            events.append("finally")

    task = spawn(sim, body(), name="victim")
    sim.run(until=1.0)
    assert task.abort(("crashed", 1))
    assert task.done
    assert task.result == ("crashed", 1)
    sim.run(until=20.0)
    # The finally ran (GeneratorExit), but the task never resumed.
    assert events == ["finally"]
    assert not task.abort()     # already dead: no-op


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
def test_plan_builders_and_ordering():
    plan = (
        FaultPlan()
        .host_outage(10.0, "ws1", 5.0)
        .partition(2.0, ["ws0", "ws1"])
        .heal(4.0)
        .migd_outage(3.0, 1.0)
    )
    times = [a.time for a in plan.sorted_actions()]
    assert times == sorted(times)
    kinds = [a.kind for a in plan.sorted_actions()]
    assert kinds == ["partition", "migd_kill", "heal", "migd_restart",
                     "host_crash", "host_reboot"]
    with pytest.raises(ValueError):
        plan.add(-1.0, "host_crash", "ws0")
    with pytest.raises(ValueError):
        plan.add(1.0, "meteor_strike", "ws0")


def test_random_plan_is_seed_deterministic():
    a = FaultPlan.random(RandomStreams(seed=5), ["ws0", "ws1"], 100.0,
                         mtbf=20.0, link_glitches=2)
    b = FaultPlan.random(RandomStreams(seed=5), ["ws0", "ws1"], 100.0,
                         mtbf=20.0, link_glitches=2)
    c = FaultPlan.random(RandomStreams(seed=6), ["ws0", "ws1"], 100.0,
                         mtbf=20.0, link_glitches=2)
    assert a.actions == b.actions
    assert a.actions != c.actions
    assert len(a) > 0
    assert all(act.time <= 100.0 for act in a.actions)


# ----------------------------------------------------------------------
# LinkFabric
# ----------------------------------------------------------------------
def test_fabric_partition_and_links():
    fabric = LinkFabric()
    assert fabric.unicast_effects(1, 2) is None     # clean delivery
    fabric.partition([[1], [2]])
    with pytest.raises(NetworkPartitionedError):
        fabric.unicast_effects(1, 2)
    with pytest.raises(NetworkPartitionedError):
        fabric.bulk(1, 2)
    assert not fabric.multicast(1, 2)
    # Unlisted addresses share the residual group: 3 and 4 still talk.
    assert fabric.unicast_effects(3, 4) is None
    fabric.heal()
    fabric.set_link(1, 2, drop=0.0, delay=0.25)
    verdict = fabric.unicast_effects(2, 1)          # undirected
    assert (verdict.deliver, verdict.delay) == (True, 0.25)
    assert fabric.bulk(1, 2) == 0.25
    fabric.clear_link(1, 2)
    assert fabric.unicast_effects(1, 2) is None
    with pytest.raises(ValueError):
        fabric.set_link(1, 2, drop=1.5)


def test_fabric_drops_are_seed_deterministic():
    def draws(seed):
        fabric = LinkFabric(rng=RandomStreams(seed=seed).stream("faults.net"))
        fabric.set_link(1, 2, drop=0.5)
        return [fabric.unicast_effects(1, 2).deliver for _ in range(64)]

    assert draws(3) == draws(3)
    assert draws(3) != draws(4)
    dropped = draws(3).count(False)
    assert 0 < dropped < 64


# ----------------------------------------------------------------------
# RPC retry backoff (deterministic, capped)
# ----------------------------------------------------------------------
def test_rpc_backoff_deterministic_and_capped():
    cluster_a = SpriteCluster(workstations=2, start_daemons=False)
    cluster_b = SpriteCluster(workstations=2, start_daemons=False)
    port_a = cluster_a.hosts[0].rpc
    port_b = cluster_b.hosts[0].rpc
    seq_a = [port_a.retry_backoff(i) for i in range(8)]
    seq_b = [port_b.retry_backoff(i) for i in range(8)]
    assert seq_a == seq_b           # same seed, same node -> same jitter
    params = cluster_a.params
    ceiling = params.rpc_backoff_cap * (1.0 + params.rpc_backoff_jitter)
    assert all(0.0 < d <= ceiling for d in seq_a)
    # Different nodes decorrelate (no retry lockstep).
    other = [cluster_a.hosts[1].rpc.retry_backoff(i) for i in range(8)]
    assert other != seq_a


def test_rpc_retries_back_off_exponentially_on_down_host():
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    cluster.params.rpc_retries = 3
    cluster.params.rpc_backoff_jitter = 0.0     # exact delays
    a, b = cluster.hosts[0], cluster.hosts[1]
    b.node.up = False

    def caller():
        started = cluster.sim.now
        try:
            yield from a.rpc.call(b.address, "proc.ping", {})
        except Exception:
            pass
        return cluster.sim.now - started

    elapsed = run_until_complete(cluster.sim, caller(), name="caller")
    params = cluster.params
    backoffs = sum(
        min(params.rpc_backoff_base * 2.0 ** i, params.rpc_backoff_cap)
        for i in range(3)
    )
    # Down-host sends fail without consuming the timeout; total wait is
    # the backoff series (plus wire/cpu epsilon).
    assert elapsed == pytest.approx(backoffs, rel=0.1)


# ----------------------------------------------------------------------
# Host crash / reboot lifecycle
# ----------------------------------------------------------------------
def _migrated_job(cluster, a, b):
    """Start a 30s job homed on ``a`` and migrate it to ``b``."""
    def job(proc):
        yield from proc.compute(30.0)
        return 0

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        yield Sleep(0.5)
        yield from cluster.managers[a.address].migrate(pcb, b.address)

    drv = spawn(cluster.sim, driver(), name="driver")
    cluster.run(until=5.0)
    assert drv.done and drv.exception is None
    return pcb


def test_remote_host_crash_reaps_shadow_and_unblocks_parent():
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    cluster.params.rpc_timeout = 0.5
    cluster.params.rpc_retries = 0
    injector = cluster.faults(detect_delay=2.0)
    a, b = cluster.hosts[0], cluster.hosts[1]
    pcb = _migrated_job(cluster, a, b)
    assert a.kernel.procs[pcb.pid].state == ProcState.MIGRATED

    lost = injector.crash_host(b)
    assert [p.pid for p in lost] == [pcb.pid]
    assert pcb.pid in injector.lost_pids()
    cluster.run(until=cluster.sim.now + 5.0)    # detection delay elapses

    shadow = a.kernel.procs[pcb.pid]
    assert shadow.state == ProcState.ZOMBIE
    assert shadow.exit_status.code == 128 + sig.SIGKILL
    assert injector.reaped == 1
    InvariantChecker(cluster, injector).assert_clean(expected_pids=[pcb.pid])


def test_home_crash_orphans_remote_process():
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    cluster.params.rpc_timeout = 0.5
    cluster.params.rpc_retries = 0
    injector = cluster.faults(detect_delay=2.0)
    a, b = cluster.hosts[0], cluster.hosts[1]
    pcb = _migrated_job(cluster, a, b)
    remote = b.kernel.procs[pcb.pid]
    assert remote.state == ProcState.RUNNING

    injector.crash_host(a)                      # the home dies
    cluster.run(until=cluster.sim.now + 5.0)    # detection delay elapses

    # Orphan detection: the dependent remote process was killed.
    assert injector.orphaned == 1
    assert pcb.pid not in b.kernel.procs
    assert remote.task.done
    InvariantChecker(cluster, injector).assert_clean(expected_pids=[pcb.pid])


def test_reboot_reannounces_to_migd_within_one_period():
    cluster = SpriteCluster(workstations=3, start_daemons=True)
    service = LoadSharingService(cluster, architecture="centralized")
    injector = cluster.faults(service=service, detect_delay=2.0)
    victim = cluster.hosts[2]
    cluster.run(until=30.0)
    assert service.migd.hosts[victim.address].available

    injector.crash_host(victim)
    cluster.run(until=cluster.sim.now + 5.0)
    assert not service.migd.hosts[victim.address].available

    injector.reboot_host(victim)
    cluster.run(
        until=cluster.sim.now + 2 * cluster.params.availability_period
    )
    assert service.migd.hosts[victim.address].available
    assert victim.node.epoch == 1


# ----------------------------------------------------------------------
# Crash during recovery
# ----------------------------------------------------------------------
def test_server_crash_again_during_reopen_then_final_recovery():
    """The server dies *again* while a client is mid-``fs.reopen``; the
    recovery driver logs the failure and the next restart completes
    recovery, leaving the invariants clean."""
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    cluster.params.rpc_timeout = 0.5
    cluster.params.rpc_retries = 0
    injector = cluster.faults()
    cluster.add_file("/a", size=8192)
    cluster.add_file("/b", size=8192)
    h0, h1 = cluster.hosts[0], cluster.hosts[1]
    server_rpc = cluster.server_hosts[0].rpc
    original_reopen = server_rpc._services["fs.reopen"]

    def scenario():
        s0 = yield from h0.fs.open("/a", OpenMode.READ_WRITE)
        s1 = yield from h1.fs.open("/b", OpenMode.READ_WRITE)
        yield from h0.fs.write(s0, 4096)        # dirty, delayed-write
        injector.crash_server(0)

        # Sabotage: the first reopen crashes the server mid-call and
        # never answers, so recovery dies halfway through.
        def crash_mid_reopen(args):
            injector.crash_server(0)
            yield Sleep(60.0)

        server_rpc.register("fs.reopen", crash_mid_reopen)
        injector.restart_server(0)
        yield Sleep(3.0)
        assert any(e.kind == "recovery_failed" for e in injector.log)

        # Second restart with a healthy handler: recovery completes.
        server_rpc.register("fs.reopen", original_reopen)
        injector.restart_server(0)
        yield Sleep(3.0)
        assert any(e.kind == "recovered" for e in injector.log)

        # Streams survived two crashes; I/O works again end to end.
        n = yield from h0.fs.read(s0, 1024)
        assert n == 1024
        yield from h0.fs.close(s0)
        yield from h1.fs.close(s1)

    run_until_complete(cluster.sim, scenario(), name="scenario")
    assert cluster.file_server.reopens >= 2
    InvariantChecker(cluster, injector).assert_clean()


def test_host_crash_mid_broadcast_is_skipped_cleanly():
    """A receiver that dies while the packet is on the wire just misses
    the message — no error, no stuck delivery, invariants clean."""
    from repro.net import NetNode

    cluster = SpriteCluster(workstations=3, start_daemons=False)
    injector = cluster.faults()
    h0, h1, h2 = cluster.hosts
    # A bare observer endpoint: host inboxes are drained by their RPC
    # server daemons, so delivery is asserted on this node instead.
    observer = NetNode(cluster.sim, "observer")
    cluster.lan.register(observer)

    def scenario():
        packet = Packet(
            src=h0.address, dst=0, kind="test-bcast", payload="hi", size=1024
        )
        bcast = spawn(cluster.sim, cluster.lan.broadcast(packet),
                      name="bcast")
        # Crash h1 while the packet is still on the medium.
        yield Sleep(cluster.lan.transmission_time(1024) * 0.5)
        injector.crash_host(h1)
        assert not h1.node.up
        yield bcast.join()
        return None

    run_until_complete(cluster.sim, scenario(), name="scenario")
    ok, got = observer.inbox.try_get()
    assert ok and got.kind == "test-bcast"      # up receivers got it
    ok, _ = h1.node.inbox.try_get()
    assert not ok                               # crashed mid-flight: missed it
    injector.reboot_host(h1)
    InvariantChecker(cluster, injector).assert_clean()


# ----------------------------------------------------------------------
# Partitions through the full stack
# ----------------------------------------------------------------------
def test_partition_blocks_migration_and_heal_restores():
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    cluster.params.rpc_retries = 0
    injector = cluster.faults()
    a, b = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.compute(10.0)
        return proc.pcb.current

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        from repro.migration import MigrationRefused

        yield Sleep(0.5)
        injector.partition([a], [b])
        refused = False
        try:
            yield from cluster.managers[a.address].migrate(pcb, b.address)
        except MigrationRefused:
            refused = True
        injector.heal()
        yield from cluster.managers[a.address].migrate(pcb, b.address)
        return refused

    drv = spawn(cluster.sim, driver(), name="driver")
    final = cluster.run_until_complete(pcb.task)
    assert drv.result is True
    assert final == b.address
    assert injector.fabric.blocked > 0
    InvariantChecker(cluster, injector).assert_clean(expected_pids=[pcb.pid])


# ----------------------------------------------------------------------
# The chaos harness (golden determinism test)
# ----------------------------------------------------------------------
def test_chaos_run_is_clean_and_byte_identical():
    first = run_chaos(seed=11, workstations=4, duration=50.0, jobs=5)
    second = run_chaos(seed=11, workstations=4, duration=50.0, jobs=5)
    assert first.violations == []
    assert first.faults > 0
    assert first.jobs == 5
    # Same seed + same plan => byte-identical traces.
    assert first.fingerprint == second.fingerprint
    assert first.to_dict() == second.to_dict()
    # A different seed must not collide.
    other = run_chaos(seed=12, workstations=4, duration=50.0, jobs=5)
    assert other.fingerprint != first.fingerprint
    assert other.violations == []


def test_chaos_report_json_shape_is_pinned():
    """``repro chaos --json`` prints ``to_dict()``: the report's fields
    in declaration order, nothing else."""
    report = run_chaos(seed=3, workstations=3, duration=30.0, jobs=3,
                       job_length=4.0)
    assert list(report.to_dict().items()) == [
        ("seed", 3), ("workstations", 3), ("duration", 30.0), ("jobs", 3),
        ("jobs_finished", 2), ("jobs_lost", 1), ("jobs_ok", 2),
        ("migrations", 2), ("refusals", 0), ("faults", 9),
        ("packets_blocked", 0), ("packets_dropped", 0),
        ("policy", "migrate"), ("checkpoints", 0), ("restores", 0),
        ("torn_images", 0), ("unrecoverable", 0),
        ("availability", 0.6666666666666666),
        ("goodput", 0.12698412698412698),
        ("packets_duplicated", 0), ("packets_reordered", 0),
        ("packets_corrupted", 0), ("checksum_drops", 0),
        ("duplicates_suppressed", 0), ("dedup_replays", 0),
        ("double_executions", 0), ("inbox_overflows", 0),
        ("suspicions_declared", 0), ("false_suspicions", 0),
        ("reconciles", 0), ("backpressure_refusals", 0),
        ("violations", []),
        ("fingerprint",
         "7cc6822823d60ddc5f59aba0ebce05217af31bd95b14c1a0d5f747798b236ed5"),
        ("events", [
            "[    3.000000] fault host_crash       host=ws2 address=4 lost=1",
            "[    5.400000] fault host_reboot      host=ws2 address=4",
            "[    7.500000] fault partition        groups=[[2, 3]]",
            "[    9.900000] fault heal             ",
            "[   12.000000] fault migd_kill        ",
            "[   13.000000] fault crash_detected   address=4 orphaned=0 reaped=1",
            "[   13.500000] fault migd_restart     ",
            "[   15.600000] fault server_crash     server=fs0",
            "[   17.100000] fault server_restart   server=fs0",
        ]),
    ]


@pytest.mark.parametrize("name", sorted(golden_migration.CHAOS_RUNS))
def test_chaos_fingerprint_matches_golden(name):
    """CI's chaos smoke runs, pinned: a refactor that moves one trace
    record is caught even though it stays self-consistent."""
    report = run_chaos(**golden_migration.CHAOS_RUNS[name])
    assert report.violations == []
    assert report.fingerprint == golden_migration.load()["chaos"][name]


def test_chaos_random_churn_stays_clean():
    report = run_chaos(
        seed=2, workstations=4, duration=60.0, jobs=5,
        random_churn=True, mtbf=25.0,
    )
    assert report.violations == []
    assert report.faults > 0


# ----------------------------------------------------------------------
# Invariant checker actually catches breakage
# ----------------------------------------------------------------------
def test_invariant_checker_flags_duplicated_process():
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    a, b = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        yield from proc.compute(5.0)
        return 0

    pcb, _ = a.spawn_process(job, name="job")
    cluster.run(until=1.0)
    # Forge a second RUNNING entry for the same pid on another kernel.
    b.kernel._adopt(pcb)
    violations = InvariantChecker(cluster).check()
    kinds = {v.kind for v in violations}
    assert "duplicated-process" in kinds


def test_invariant_checker_flags_lost_process():
    cluster = SpriteCluster(workstations=1, start_daemons=False)
    checker = InvariantChecker(cluster)
    violations = checker.check(expected_pids=[1000042])
    assert [v.kind for v in violations] == ["lost-process"]
    with pytest.raises(AssertionError):
        checker.assert_clean(expected_pids=[1000042])


class _UntimedReply(SimEvent):
    """A reply event whose wait drops its deadline: a call made with it
    waits as every bulk call did before probes, with nothing to end it."""

    __slots__ = ()

    def wait(self, timeout=None):
        return super().wait()


def test_invariant_checker_flags_a_call_nothing_will_answer(monkeypatch):
    """A task waiting, with no deadline, on a reply that its file server
    lost in a crash is a stuck call.  One whose handler is still running
    is not, and neither is one whose deadline will send a probe."""
    cluster = SpriteCluster(workstations=1, start_daemons=False)
    host, server_host = cluster.hosts[0], cluster.server_hosts[0]
    injector = FaultInjector(cluster)

    def slow(seconds):
        yield Sleep(seconds)
        return seconds

    server_host.rpc.register("test.slow", slow)

    def caller(seconds):
        return (yield from host.rpc.call(
            server_host.address, "test.slow", seconds, timeout=1000.0
        ))

    monkeypatch.setattr(rpc, "SimEvent", _UntimedReply)
    spawn(cluster.sim, caller(1.0), name="lost")
    cluster.run(until=0.1)
    monkeypatch.undo()
    spawn(cluster.sim, caller(1.0), name="probing")
    cluster.run(until=0.5)
    injector.crash_server(0)       # both handlers end while fs0 is down
    cluster.run(until=2.0)
    injector.restart_server(0)
    monkeypatch.setattr(rpc, "SimEvent", _UntimedReply)
    spawn(cluster.sim, caller(500.0), name="served")
    cluster.run(until=3.0)
    stuck = [v.detail for v in InvariantChecker(cluster, injector).check()
             if v.kind == "stuck-call"]
    assert [(v["task"], v["service"]) for v in stuck] == [("lost", "test.slow")]
    assert stuck[0]["host"] == host.name and stuck[0]["since"] < 0.1


def _scan_guests(kernel):
    """The full-table predicate :meth:`SpriteKernel.foreign_pcbs` had
    before the guest index: the twin the index is checked against."""
    return [
        pcb for pcb in kernel.procs.values()
        if pcb.state == ProcState.RUNNING
        and pcb.current == kernel.address and pcb.home != kernel.address
    ]


@pytest.mark.parametrize("seed", [0, 4, 7])
def test_guest_index_matches_a_full_scan_after_every_event(seed):
    """Seeded spawns, migrations, remote forks, an eviction, exits, a
    crash with its peers' reaction and the reboot's journal recovery:
    after every event each kernel's ``foreign_pcbs()`` is the very list
    of pcbs the full-table predicate finds, in order."""
    import random

    from repro.kernel import NoSuchProcess
    from repro.net import RpcError

    rng = random.Random(seed)
    cluster = SpriteCluster(workstations=4, start_daemons=True, seed=seed)
    injector = cluster.faults(detect_delay=2.0)
    hosts = cluster.hosts

    def child(proc, work):
        yield from proc.compute(work)
        return 0

    def parent(proc, work):
        yield from proc.compute(work)
        try:
            yield from proc.fork(child, work / 2)
            yield from proc.compute(work / 2)
            yield from proc.wait_all()
        except (RpcError, NoSuchProcess):
            return 1  # its home is down
        return 0

    def later(delay, action):
        def step():
            yield Sleep(delay)
            try:
                yield from action()
            except Exception:  # noqa: BLE001 - a refused or failed hop
                pass

        spawn(cluster.sim, step(), name="step")

    def migrate(pcb):
        def action():
            if pcb.state == ProcState.RUNNING:
                source = pcb.current
                target = rng.choice([h for h in hosts if h.address != source])
                yield from cluster.managers[source].migrate(pcb, target.address)

        return action

    def now(fn):
        def action():
            fn()
            yield from ()

        return action

    for index in range(6):
        home = rng.choice(hosts)
        pcb, _ = home.spawn_process(
            parent, rng.uniform(2.0, 8.0), name=f"job{index}"
        )
        later(rng.uniform(0.2, 1.5), migrate(pcb))
        later(rng.uniform(4.0, 9.0), migrate(pcb))
    later(rng.uniform(3.0, 5.0), now(rng.choice(hosts).user_input))
    victim = rng.choice(hosts)
    crash_at = rng.uniform(5.0, 8.0)
    later(crash_at, now(lambda: injector.crash_host(victim)))
    later(crash_at + rng.uniform(3.0, 6.0),
          now(lambda: injector.reboot_host(victim)))

    guests = set()
    while cluster.sim.now < 40.0 and cluster.sim.step():
        for kernel in cluster.kernels.values():
            indexed = kernel.foreign_pcbs()
            scanned = _scan_guests(kernel)
            assert len(indexed) == len(scanned)
            assert all(a is b for a, b in zip(indexed, scanned))
            guests.update((kernel.address, pcb.pid) for pcb in indexed)
    # The run took every path that writes a process table.
    assert len(guests) >= 8
    assert sum(len(evictor.events) for evictor in cluster.evictors) >= 1
    assert sum(k.calls_forwarded_home for k in cluster.kernels.values()) >= 1
    assert injector.orphaned + injector.reaped >= 1
    assert sum(m.journal.recovered for m in cluster.managers.values()) >= 1
    InvariantChecker(cluster, injector).assert_clean()


# ----------------------------------------------------------------------
# Suspicion-based failure detection
# ----------------------------------------------------------------------
def test_detector_declares_genuine_crash_and_reconciles_on_reboot():
    cluster = SpriteCluster(workstations=3, start_daemons=True)
    injector = cluster.faults()
    detector = injector.attach_detector()
    victim = cluster.hosts[2]
    period = cluster.params.heartbeat_period
    threshold = cluster.params.suspicion_threshold
    cluster.run(until=5.0)

    injector.crash_host(victim)
    cluster.run(until=cluster.sim.now + period * (threshold + 2))
    watch = detector.watch(victim.address)
    assert detector.declared == 1
    assert watch.declared
    # Declaration drove the survivor reaction (not a fixed delay).
    assert any(e.kind == "crash_detected" for e in injector.log)

    injector.reboot_host(victim)
    cluster.run(until=cluster.sim.now + 3 * period)
    assert detector.reconciles == 1
    assert not watch.declared
    # The host really crashed: the reconcile is NOT a false suspicion.
    assert detector.false_suspicions == 0


def test_detector_false_suspicion_on_partition_and_flap_damping():
    """A partitioned host looks dead but never crashed: reconcile counts
    a false suspicion, and each flap raises the declaration threshold."""
    cluster = SpriteCluster(workstations=3, start_daemons=True)
    params = cluster.params
    injector = cluster.faults()
    detector = injector.attach_detector()
    victim = cluster.hosts[2]
    period = params.heartbeat_period
    base = params.suspicion_threshold
    cluster.run(until=5.0)

    injector.partition([victim.node.address])
    cluster.run(until=cluster.sim.now + period * (base + 2))
    assert detector.declared == 1
    injector.heal()
    cluster.run(until=cluster.sim.now + 3 * period)
    watch = detector.watch(victim.address)
    assert detector.false_suspicions == 1
    assert watch.flaps == 1
    damped = min(base + params.suspicion_flap_penalty,
                 params.suspicion_max_threshold)
    assert watch.threshold == damped

    # Flap again: the damped threshold needs more silence to re-declare.
    injector.partition([victim.node.address])
    cluster.run(until=cluster.sim.now + period * (base - 1))
    assert detector.declared == 1               # old threshold would fire here
    cluster.run(until=cluster.sim.now + period * (damped + 2))
    assert detector.declared == 2
    injector.heal()
    cluster.run(until=cluster.sim.now + 3 * period)
    assert detector.false_suspicions == 2
    assert watch.threshold == min(base + 2 * params.suspicion_flap_penalty,
                                  params.suspicion_max_threshold)
    InvariantChecker(cluster, injector).assert_clean()


def _migrated_under_detector():
    """ws0's job migrated to ws1, with the suspicion detector attached;
    returns (cluster, injector, ws0, ws1, the job's pcb)."""
    cluster = SpriteCluster(workstations=3, start_daemons=True)
    injector = cluster.faults()
    injector.attach_detector()
    ws0, ws1 = cluster.host_by_name("ws0"), cluster.host_by_name("ws1")

    def job(proc):
        yield from proc.compute(300.0)
        return 0

    pcb, _ = ws0.spawn_process(job, name="job")

    def driver():
        yield Sleep(1.0)
        yield from cluster.managers[ws0.address].migrate(pcb, ws1.address)

    spawn(cluster.sim, driver(), name="driver")
    cluster.run(until=5.0)
    assert pcb.current == ws1.address
    return cluster, injector, ws0, ws1, pcb


def _fast_reboot(cluster, injector, ws1):
    """Crash ws1 and bring it back well inside the suspicion window
    (three missed beats of two seconds)."""
    injector.crash_host(ws1)
    cluster.run(until=cluster.sim.now + 3.0)
    injector.reboot_host(ws1)
    cluster.run(until=60.0)


def test_detector_declares_a_host_that_reboots_inside_the_suspicion_window():
    """Its heartbeats resume before three are missed, but under a new
    crash epoch: the old incarnation is dead, so the survivors must
    react — here, the home reaps the shadow of the process ws1 lost."""
    cluster, injector, ws0, ws1, pcb = _migrated_under_detector()
    _fast_reboot(cluster, injector, ws1)
    detected = [e for e in injector.log if e.kind == "crash_detected"]
    assert [e.detail["address"] for e in detected] == [ws1.address]
    assert injector.detector.stats()["false_suspicions"] == 0
    shadow = ws0.kernel.procs[pcb.pid]
    assert shadow.state == ProcState.ZOMBIE
    assert shadow.exit_status.code == 128 + sig.SIGKILL
    InvariantChecker(cluster, injector).assert_clean()


def test_checker_flags_the_shadow_an_undeclared_fast_reboot_leaves(monkeypatch):
    """A crash excuses a dangling shadow only while its detection is
    still due.  A detector that never declares the fast reboot leaves a
    MIGRATED shadow pointing at a host that is up again: flagged."""
    from repro.faults.detector import FailureDetector

    monkeypatch.setattr(FailureDetector, "_declare", lambda *args: None)
    cluster, injector, ws0, ws1, pcb = _migrated_under_detector()
    injector.crash_host(ws1)
    cluster.run(until=cluster.sim.now + 1.0)
    # ws1 is down: suspicion is accruing, the shadow may dangle.
    assert InvariantChecker(cluster, injector).check() == []
    injector.reboot_host(ws1)
    cluster.run(until=60.0)
    assert ws0.kernel.procs[pcb.pid].state == ProcState.MIGRATED
    violations = InvariantChecker(cluster, injector).check()
    assert [(v.kind, v.detail) for v in violations] == [(
        "dangling-shadow",
        {"pid": pcb.pid, "home": ws0.address, "remote": ws1.address},
    )]


def test_reconcile_reaps_the_shadow_of_a_process_orphaned_while_home_was_away():
    """Partitioning the home away gets it declared dead, and ws1 then
    orphan-kills the home's process.  When the home's heartbeats resume
    the reconcile must reap the shadow it still keeps of that process."""
    cluster, injector, ws0, ws1, pcb = _migrated_under_detector()
    injector.partition([ws0.address])
    cluster.run(until=cluster.sim.now + 12.0)
    injector.heal()
    cluster.run(until=60.0)
    detector = injector.detector
    assert (detector.declared, detector.false_suspicions) == (1, 1)
    assert pcb.pid not in ws1.kernel.procs
    shadow = ws0.kernel.procs[pcb.pid]
    assert shadow.state == ProcState.ZOMBIE
    assert shadow.exit_status.exit_host == ws1.address
    InvariantChecker(cluster, injector).assert_clean()


# ----------------------------------------------------------------------
# Overload backpressure
# ----------------------------------------------------------------------
def test_source_refuses_past_outgoing_migration_cap():
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    cluster.params.migration_max_outgoing = 1
    a, b = cluster.hosts[0], cluster.hosts[1]
    manager = cluster.managers[a.address]

    def job(proc):
        yield from proc.compute(5.0)
        return 0

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        from repro.migration import MigrationRefused

        yield Sleep(0.5)
        manager.outgoing_in_flight = 1          # a transfer already in flight
        try:
            yield from manager.migrate(pcb, b.address)
        except MigrationRefused:
            manager.outgoing_in_flight = 0
            return "refused"

    drv = spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(pcb.task)
    assert drv.result == "refused"
    assert manager.refused_outgoing_cap == 1
    assert manager.records[-1].detail["refusal"] == (
        "source at outgoing-migration cap"
    )


def test_target_backpressures_foreign_work_but_never_eviction():
    """At the incoming cap the target answers RetryLaterError for
    foreign work — but a process coming back to its *home* is exempt
    (eviction must never fail)."""
    cluster = SpriteCluster(workstations=3, start_daemons=False)
    cluster.params.migration_max_incoming = 1
    cluster.params.rpc_retries = 1
    a, b, c = cluster.hosts
    target = cluster.managers[b.address]
    home_mgr = cluster.managers[a.address]

    def saturate(host):
        """Take the one lease ``host`` allows, for a process of c's."""
        answer = yield from c.rpc.call(host.address, "mig.negotiate", {
            "version": cluster.params.migration_version, "pid": 999999,
            "name": "filler", "uid": 0, "home": c.address,
            "reason": "test", "vm_bytes": 0,
        })
        assert answer["accept"]
        return {"pid": 999999, "ticket": answer["ticket"]}

    def job(proc):
        yield from proc.compute(30.0)
        return 0

    pcb, _ = a.spawn_process(job, name="job")

    def driver():
        from repro.migration import MigrationRefused

        yield Sleep(0.5)
        # Saturate the target's lease table: foreign work is refused.
        filler = yield from saturate(b)
        refused = False
        try:
            yield from home_mgr.migrate(pcb, b.address)
        except MigrationRefused:
            refused = True
        assert refused
        assert target.leases.refused_incoming_busy >= 1
        assert home_mgr.records[-1].detail["refusal"] == (
            "target busy (retry later)"
        )
        # Cap released: the same migration now lands.
        yield from c.rpc.call(b.address, "mig.release", filler)
        yield from home_mgr.migrate(pcb, b.address)
        # Eviction exemption: send it home while the *home* manager is
        # saturated — home processes bypass the incoming cap.
        filler = yield from saturate(a)
        yield from target.migrate(pcb, a.address)
        yield from c.rpc.call(a.address, "mig.release", filler)
        return pcb.current

    drv = spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(pcb.task)
    assert drv.result == a.address
    InvariantChecker(cluster).assert_clean(expected_pids=[pcb.pid])


def test_migd_sheds_selection_requests_when_backlogged():
    """Past ``migd_max_pending`` queued offers, selection requests get
    an explicit busy verdict (clients fall back to local execution);
    updates and releases are never shed."""
    cluster = SpriteCluster(workstations=3, start_daemons=True)
    cluster.params.migd_max_pending = 1
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.run(until=30.0)
    migd = service.migd
    served_before = migd.requests_served

    # Backlog deeper than the cap, as seen by the queue-depth probe.
    # (Stuff the buffer directly: the idle server task is blocked in a
    # get(), so try_put would hand the first item straight to its
    # waiter instead of queueing it — and crash the daemon later.)
    migd.master.requests._items.append(None)
    migd.master.requests._items.append(None)

    reply = migd._handle({"op": "request", "client": 999, "n": 1}, 999)
    assert reply == {"hosts": [], "busy": True}
    assert migd.refused_busy == 1
    assert migd.requests_served == served_before
    # Updates are never shed, even backlogged.
    reply = migd._handle(
        {"op": "update", "host": 999, "load": 0.0, "input_idle": 100.0,
         "available": True, "time": cluster.sim.now}, 999,
    )
    assert reply == {"ok": True}
    # Drain the stuffing so the server daemon never sees it.
    assert migd.master.requests.try_get() == (True, None)
    assert migd.master.requests.try_get() == (True, None)

    # End to end: with the backlog gone, a real selector request is
    # served again and the busy verdict above was counted client-side
    # when it travels the wire (unit-covered here, chaos-covered in
    # the adversarial gauntlet).
    selector = service.selectors[cluster.hosts[1].address]
    task = spawn(cluster.sim, selector.request(n=1), name="ask")
    cluster.run(until=cluster.sim.now + 5.0)
    assert task.done
    assert migd.requests_served == served_before + 1


# ----------------------------------------------------------------------
# The adversarial gauntlet (golden determinism + exactly-once)
# ----------------------------------------------------------------------
def test_adversarial_chaos_is_clean_and_byte_identical():
    first = run_chaos(seed=11, workstations=4, duration=50.0, jobs=5,
                      adversarial=True)
    second = run_chaos(seed=11, workstations=4, duration=50.0, jobs=5,
                       adversarial=True)
    assert first.violations == []
    # The adversarial machinery actually engaged...
    assert first.packets_duplicated > 0
    assert first.duplicates_suppressed > 0
    assert first.suspicions_declared > 0
    # ...and the exactly-once contract held under it.
    assert first.double_executions == 0
    # Same seed + same plan => byte-identical traces, detector included.
    assert first.fingerprint == second.fingerprint
    assert first.to_dict() == second.to_dict()


def test_invariant_checker_flags_double_execution():
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    cluster.hosts[1].rpc.double_executions = 1   # forge a violation
    violations = InvariantChecker(cluster).check()
    assert "double-execution" in {v.kind for v in violations}
