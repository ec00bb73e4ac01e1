"""repro.checkpoint: images, sweeps, restart, policies, determinism."""

import pytest

from repro import SpriteCluster
from repro.checkpoint import CheckpointService
from repro.cli import build_parser
from repro.faults import FAULT_POLICIES, InvariantChecker, run_chaos
from repro.migration import MigrationRefused
from repro.sim import Sleep, run_until_complete, spawn

#: Chaos fingerprint with checkpointing entirely off (the seed repo's
#: golden) — pins the zero-cost-when-off guarantee at the API level.
GOLDEN_CHAOS_OFF = (
    "d12358eae848c8c2630ba70b902395118062ee8b4de64a7cae11467de4ea505c"
)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def build(workstations=3, seed=5, interval=2.0, mode="full",
          detect_delay=5.0):
    cluster = SpriteCluster(workstations=workstations, seed=seed)
    cluster.standard_images()
    injector = cluster.faults(detect_delay=detect_delay)
    service = CheckpointService(
        cluster, injector=injector, interval=interval, mode=mode
    )
    return cluster, injector, service


def worker(proc, work, memory=0):
    """Restart-aware job: only re-runs the remainder after a restore
    (the epsilon guards float residue in ``cpu_time``)."""
    if memory and proc.pcb.vm.size < memory:
        yield from proc.use_memory(memory)
    while work - proc.pcb.cpu_time > 1e-6:
        yield from proc.compute(min(1.0, work - proc.pcb.cpu_time))
    return 0


def dirty_worker(proc, work, memory):
    """Like ``worker`` but keeps re-dirtying pages, for delta images."""
    if proc.pcb.vm.size < memory:
        yield from proc.use_memory(memory)
    while work - proc.pcb.cpu_time > 1e-6:
        proc.pcb.vm.touch(4096, write=True)
        yield from proc.compute(min(1.0, work - proc.pcb.cpu_time))
    return 0


def protect(service, host, program, *args, name="job"):
    pcb, _ = host.spawn_process(program, *args, name=name)
    service.register(pcb, program, *args)
    return pcb


# ----------------------------------------------------------------------
# Periodic imaging
# ----------------------------------------------------------------------
def test_periodic_full_images_bank_progress():
    cluster, _, service = build()
    pcb = protect(service, cluster.hosts[0], worker, 30.0)
    cluster.run(until=9.0)

    images = service.store.images[pcb.pid]
    assert len(images) >= 2
    assert all(im.intact for im in images)
    assert all(im.mode == "full" for im in images)
    # Progress is monotone across generations and matches sim time spent.
    progresses = [im.progress for im in images]
    assert progresses == sorted(progresses)
    latest = service.store.latest_intact(pcb.pid)
    assert latest is images[-1]
    assert latest.progress > 0
    # Generations are trimmed to the configured bound.
    assert len(images) <= max(1, cluster.params.checkpoint_generations)
    stats = service.stats()
    assert stats["checkpoints"] >= 2
    assert stats["bytes_written"] > 0


def test_incremental_images_chain_on_full_base():
    cluster, _, service = build(mode="incremental",
                                detect_delay=3.0)
    memory = 256 * 1024
    pcb = protect(service, cluster.hosts[0], dirty_worker, 40.0, memory)
    cluster.run(until=11.0)

    images = service.store.images[pcb.pid]
    fulls = [im for im in images if im.mode == "full"]
    deltas = [im for im in images if im.mode == "incremental"]
    assert fulls and deltas
    base = fulls[-1]
    for delta in deltas:
        assert delta.base_seq >= 0
        # A delta carries only dirtied pages, far below the full VM...
        assert delta.image_bytes < base.image_bytes
        # ...but restoring it replays the whole chain.
        assert delta.restore_bytes > delta.image_bytes
    # Stats count every delta taken; the store retains only the
    # trimmed tail (plus the base the tail chains on).
    assert service.stats()["incrementals"] >= len(deltas)
    assert images[0] is base


# ----------------------------------------------------------------------
# Crash -> restart
# ----------------------------------------------------------------------
def test_restart_after_crash_finishes_elsewhere():
    cluster, injector, service = build()
    a = cluster.hosts[0]
    pcb = protect(service, a, worker, 10.0)

    def chaos():
        yield Sleep(5.0)
        injector.crash_host(a)
        yield Sleep(20.0)
        injector.heal_all()

    spawn(cluster.sim, chaos(), name="chaos", daemon=True)
    cluster.run(until=60.0)

    assert pcb.task.done and pcb.task.result == 0
    assert pcb.current != a.address
    assert pcb.restored_progress > 0
    # The restore banked image progress: the job did not start over.
    assert pcb.cpu_time < 10.0 + pcb.restored_progress + 1e-6
    stats = service.stats()
    assert stats["restores"] == 1
    assert stats["unrecoverable"] == 0
    InvariantChecker(cluster, injector).assert_clean(expected_pids=[pcb.pid])


def test_restart_after_double_crash():
    cluster, injector, service = build(workstations=3)
    a, b = cluster.hosts[0], cluster.hosts[1]
    pcb = protect(service, a, worker, 20.0)

    def chaos():
        yield Sleep(5.0)
        injector.crash_host(a)      # detected t=10, restored on b
        yield Sleep(10.0)
        injector.crash_host(b)      # detected t=20, restored on c
        yield Sleep(25.0)
        injector.heal_all()

    spawn(cluster.sim, chaos(), name="chaos", daemon=True)
    cluster.run(until=90.0)

    assert pcb.task.done and pcb.task.result == 0
    assert pcb.current == cluster.hosts[2].address
    assert service.stats()["restores"] == 2
    assert service.stats()["unrecoverable"] == 0
    InvariantChecker(cluster, injector).assert_clean(expected_pids=[pcb.pid])


def test_torn_images_skipped_by_digest():
    cluster, injector, service = build()
    a = cluster.hosts[0]
    pcb = protect(service, a, worker, 15.0)
    cluster.run(until=5.0)          # intact images at t=2, t=4

    good = service.store.latest_intact(pcb.pid)
    assert good is not None and good.intact

    # A crash mid-write leaves an unsealed image (no digest at all)...
    torn = service.store.begin(pcb.pid, pcb.name, "full")
    torn.progress = 999.0
    assert not torn.intact
    # ...and torn storage can also corrupt a sealed one (digest mismatch).
    corrupt = service.store.begin(pcb.pid, pcb.name, "full")
    corrupt.progress = 999.0
    corrupt.seal()
    corrupt.progress = 1000.0
    assert not corrupt.intact

    assert service.store.latest_intact(pcb.pid) is good
    assert service.store.torn_after(good) == 2

    def chaos():
        yield Sleep(0.1)
        injector.crash_host(a)
        yield Sleep(20.0)
        injector.heal_all()

    spawn(cluster.sim, chaos(), name="chaos", daemon=True)
    cluster.run(until=60.0)

    assert pcb.task.done and pcb.task.result == 0
    stats = service.stats()
    assert stats["restores"] == 1
    assert stats["torn_skipped"] == 2
    # Restore banked the *intact* generation, never the torn 999s image.
    assert pcb.restored_progress == pytest.approx(good.progress)
    InvariantChecker(cluster, injector).assert_clean(expected_pids=[pcb.pid])


def test_unrecoverable_without_any_intact_image():
    cluster, injector, service = build(interval=30.0)   # never fires
    a = cluster.hosts[0]
    pcb = protect(service, a, worker, 10.0)

    def chaos():
        yield Sleep(2.0)
        injector.crash_host(a)

    spawn(cluster.sim, chaos(), name="chaos", daemon=True)
    cluster.run(until=40.0)

    assert pcb.task.done and pcb.task.result != 0
    stats = service.stats()
    assert stats["restores"] == 0
    # Counted exactly once, even across repeated detection sweeps.
    assert stats["unrecoverable"] == 1
    assert service.registry[pcb.pid].abandoned


# ----------------------------------------------------------------------
# Mutual exclusion with migration
# ----------------------------------------------------------------------
def test_migration_refuses_process_being_checkpointed():
    cluster, _, service = build()
    a, b = cluster.hosts[0], cluster.hosts[1]
    pcb = protect(service, a, worker, 30.0)
    cluster.run(until=1.0)

    pcb.checkpoint_lock = True
    refusal = {}

    def driver():
        try:
            yield from cluster.managers[a.address].migrate(pcb, b.address)
        except MigrationRefused as err:
            refusal["msg"] = str(err)

    run_until_complete(cluster.sim, driver(), name="driver")
    assert "checkpointed" in refusal["msg"]

    # Lock released -> the same migration goes through.
    pcb.checkpoint_lock = False

    def retry():
        yield from cluster.managers[a.address].migrate(pcb, b.address)

    run_until_complete(cluster.sim, retry(), name="retry")
    assert pcb.current == b.address


def test_daemon_skips_process_holding_migration_ticket():
    cluster, _, service = build()
    a = cluster.hosts[0]
    pcb = protect(service, a, worker, 30.0)
    cluster.run(until=1.0)
    before = len(service.store.images.get(pcb.pid, []))

    pcb.migration_ticket = object()     # migration owns the state
    taken = run_until_complete(cluster.sim, service.sweep(a), name="sweep")
    assert taken == 0
    assert service.skipped_migrating == 1
    assert len(service.store.images.get(pcb.pid, [])) == before

    pcb.migration_ticket = None         # released -> next sweep images it
    taken = run_until_complete(cluster.sim, service.sweep(a), name="sweep")
    assert taken == 1
    assert not pcb.checkpoint_lock      # lock never leaks past the write
    assert len(service.store.images[pcb.pid]) == before + 1


# ----------------------------------------------------------------------
# Policies and chaos determinism
# ----------------------------------------------------------------------
def test_unknown_fault_policy_raises():
    with pytest.raises(ValueError, match="pray"):
        run_chaos(policy="pray")
    # The CLI offers exactly the policies run_chaos accepts.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chaos", "--policy", "checkpoint-restart"])
    for policy in FAULT_POLICIES:
        assert build_parser().parse_args(
            ["chaos", "--policy", policy]
        ).policy == policy


def test_chaos_with_checkpointing_off_matches_golden():
    report = run_chaos(seed=11, workstations=4, duration=50.0, jobs=5)
    assert report.policy == "migrate"
    assert report.checkpoints == 0 and report.restores == 0
    assert report.fingerprint == GOLDEN_CHAOS_OFF


@pytest.mark.parametrize("policy", ["checkpoint", "hybrid"])
def test_chaos_checkpoint_policies_clean_and_deterministic(policy):
    kwargs = dict(
        seed=2, workstations=4, duration=60.0, jobs=5,
        random_churn=True, mtbf=25.0,
        policy=policy, checkpoint_interval=5.0, job_memory=64 * 1024,
    )
    first = run_chaos(**kwargs)
    second = run_chaos(**kwargs)
    assert first.clean, first.violations
    assert first.fingerprint == second.fingerprint
    assert first.checkpoints > 0
    assert 0.0 <= first.availability <= 1.0
    assert first.goodput > 0
    if policy == "checkpoint":
        assert first.migrations == 0


def test_policies_engage_disjoint_mechanisms():
    # Which mechanism runs is a policy invariant (which *wins* on
    # availability is seed-dependent — that is the P8 study's job).
    kwargs = dict(
        seed=2, workstations=4, duration=60.0, jobs=5,
        random_churn=True, mtbf=25.0,
        checkpoint_interval=5.0, job_memory=64 * 1024,
    )
    migrate = run_chaos(policy="migrate", **kwargs)
    ckpt = run_chaos(policy="checkpoint", **kwargs)
    hybrid = run_chaos(policy="hybrid", **kwargs)
    assert migrate.checkpoints == 0 and migrate.restores == 0
    assert ckpt.migrations == 0 and ckpt.checkpoints > 0
    assert hybrid.checkpoints > 0
    assert hybrid.migrations > 0
    for report in (migrate, ckpt, hybrid):
        assert report.clean, report.violations


# ----------------------------------------------------------------------
# Invariant-checker accounting
# ----------------------------------------------------------------------
def test_checkpointed_but_dead_process_is_accounted():
    cluster, injector, service = build(interval=1.0)
    a = cluster.hosts[0]
    pcb = protect(service, a, worker, 30.0)
    cluster.run(until=3.0)
    assert service.store.latest_intact(pcb.pid) is not None

    # Crash and stop *before* detection: no kernel holds the process,
    # but its image makes it accounted state, not a conservation leak.
    injector.crash_host(a)
    assert pcb.pid in service.accounted_pids()
    checker = InvariantChecker(cluster, injector)
    assert checker._checkpointed_pids() == {pcb.pid}
    checker.assert_clean(expected_pids=[pcb.pid])
