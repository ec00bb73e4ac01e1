"""Deeper end-to-end scenarios across the whole stack."""

import pytest

from repro import SpriteCluster
from repro.kernel import APPENDIX_A, KERNEL_CALLS, UserContext, signals as sig
from repro.loadsharing import LoadSharingService, ReExporter
from repro.sim import Sleep, spawn
from repro.workloads import Pmake, SourceTree


def test_pmake_survives_mid_build_eviction():
    """A host is reclaimed during a parallel build: the job comes home,
    finishes there, and the build completes correctly anyway."""
    cluster = SpriteCluster(workstations=5, start_daemons=True)
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.standard_images()
    tree = SourceTree(files=8, compile_cpu=6.0, link_cpu=2.0)
    tree.populate(cluster)
    cluster.run(until=45.0)

    coordinator_host = cluster.hosts[0]
    pmake = Pmake(tree, client=service.mig_client(coordinator_host), max_jobs=4)

    def coordinator(proc):
        result = yield from pmake.run(proc)
        return result

    pcb, _ = coordinator_host.spawn_process(coordinator, name="pmake")

    def user_returns():
        yield Sleep(3.0)   # just after the build starts (t≈48)
        # Reclaim the first non-coordinator host seen hosting a guest.
        while True:
            for host in cluster.hosts[1:]:
                if host.kernel.foreign_pcbs():
                    host.user_input()
                    return
            yield Sleep(0.5)

    spawn(cluster.sim, user_returns(), name="user", daemon=True)
    result = cluster.run_until_complete(pcb.task)
    assert result.targets_built == 9
    evictions = [
        r for r in cluster.migration_records()
        if r.reason == "eviction" and not r.refused
    ]
    assert len(evictions) >= 1


def test_killpg_reaches_migrated_member():
    cluster = SpriteCluster(workstations=3, start_daemons=False)
    a, b = cluster.hosts[0], cluster.hosts[1]

    def member(proc):
        yield from proc.compute(60.0)

    def leader(proc):
        proc.catch_signal(sig.SIGTERM)   # the group signal hits us too
        yield from proc.setpgrp()
        pids = []
        for i in range(2):
            pid = yield from proc.fork(member, name=f"m{i}")
            pids.append(pid)
        yield from proc.compute(2.0)
        # One member has been migrated away by now.
        count = yield from proc.killpg(proc.pcb.pgrp, sig.SIGTERM)
        statuses = yield from proc.wait_all()
        return (count, sorted(s.code for s in statuses))

    pcb, _ = a.spawn_process(leader, name="leader")

    def driver():
        yield Sleep(1.0)
        victims = [
            p for p in a.kernel.procs.values() if p.name.startswith("m")
        ]
        yield from cluster.managers[a.address].migrate(victims[0], b.address)

    spawn(cluster.sim, driver(), name="driver")
    count, codes = cluster.run_until_complete(pcb.task)
    # Leader + two members in the group; members died of SIGTERM.
    assert count == 3
    assert codes == [128 + sig.SIGTERM, 128 + sig.SIGTERM]


def test_migration_while_sleeping_process():
    """Sleep is an interruptible state: migration happens promptly and
    the remaining sleep completes on the target."""
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    a, b = cluster.hosts[0], cluster.hosts[1]

    def sleeper(proc):
        yield from proc.sleep(10.0)
        return (proc.now, proc.pcb.current)

    pcb, _ = a.spawn_process(sleeper, name="sleeper")
    records = []

    def driver():
        yield Sleep(2.0)
        record = yield from cluster.managers[a.address].migrate(pcb, b.address)
        records.append(record)

    spawn(cluster.sim, driver(), name="driver")
    woke_at, where = cluster.run_until_complete(pcb.task)
    assert where == b.address
    # The sleep's total duration is preserved across the move.
    assert woke_at == pytest.approx(10.0, abs=0.5)
    assert records[0].freeze_time < 1.0


def test_signal_during_syscall_delivered_at_boundary():
    cluster = SpriteCluster(workstations=1, start_daemons=False)
    host = cluster.hosts[0]
    cluster.add_file("/big", size=2_000_000)

    def reader(proc):
        proc.catch_signal(sig.SIGUSR1)
        fd = yield from proc.open("/big", 0x1)
        yield from proc.read(fd, 2_000_000)   # long syscall
        seen = proc.signals_seen()
        yield from proc.close(fd)
        return seen

    pcb, _ = host.spawn_process(reader, name="reader")

    def sender():
        yield Sleep(0.5)   # mid-read
        host.kernel.post_signal_local(pcb, sig.SIGUSR1)

    spawn(cluster.sim, sender(), name="sender")
    seen = cluster.run_until_complete(pcb.task)
    assert seen == [sig.SIGUSR1]


def test_three_generation_family_with_migration():
    cluster = SpriteCluster(workstations=3, start_daemons=False)
    a, b = cluster.hosts[0], cluster.hosts[1]

    def grandchild(proc):
        yield from proc.compute(0.5)
        yield from proc.exit(3)

    def child(proc):
        yield from proc.compute(2.0)      # may migrate during this
        yield from proc.fork(grandchild, name="gc")
        status = yield from proc.wait()
        yield from proc.exit(status.code + 10)

    def parent(proc):
        yield from proc.fork(child, name="child")
        status = yield from proc.wait()
        return status.code

    pcb, _ = a.spawn_process(parent, name="parent")

    def driver():
        yield Sleep(1.0)
        kids = [p for p in a.kernel.procs.values() if p.name == "child"]
        yield from cluster.managers[a.address].migrate(kids[0], b.address)

    spawn(cluster.sim, driver(), name="driver")
    code = cluster.run_until_complete(pcb.task)
    assert code == 13   # 3 + 10, reported through two waits across hosts


def test_call_table_covers_every_usercontext_syscall():
    """Meta-test: every public method of the program API is a kernel
    call behind the gate — classified by Appendix A, ending at a safe
    point — or one of a few named helpers that are not kernel calls."""
    helpers = {
        "compute", "use_memory", "dirty_memory",   # the program's own work
        "catch_signal", "signals_seen",            # user-level signal state
        "wait_all", "start",                       # conveniences over wait / spawn
    }
    public = {
        name for name, value in vars(UserContext).items()
        if not name.startswith("_") and callable(value)
    }
    assert public == set(KERNEL_CALLS) | helpers
    assert not set(KERNEL_CALLS) & helpers
    for name, method in KERNEL_CALLS.items():
        assert name in APPENDIX_A, f"{name} missing from Appendix A"
        assert vars(UserContext)[name] is method


def test_full_stack_day_in_the_life():
    """One compact scenario touching every subsystem: load sharing,
    remote exec, file traffic, eviction, re-export, and accounting."""
    cluster = SpriteCluster(workstations=5, start_daemons=True, seed=2)
    service = LoadSharingService(cluster, architecture="centralized")
    reexporter = ReExporter(cluster, service)
    cluster.standard_images()
    cluster.run(until=45.0)

    submitter = cluster.hosts[0]
    client = service.mig_client(submitter)

    def unit(proc, cpu):
        yield from proc.use_memory(512 * 1024)
        yield from proc.compute(cpu, dirty_bytes_per_second=2048)
        return 0

    def coordinator(proc):
        jobs = [(unit, (30.0,), f"unit{i}") for i in range(6)]
        finished = yield from client.run_batch(proc, jobs, image_path="/bin/sim")
        return finished

    pcb, _ = submitter.spawn_process(coordinator, name="batch")

    def owners():
        yield Sleep(15.0)
        for host in cluster.hosts[1:3]:
            host.user_input()

    spawn(cluster.sim, owners(), name="owners", daemon=True)
    finished = cluster.run_until_complete(pcb.task)
    assert len(finished) == 6
    assert all(job.status is not None for job in finished)
    records = [r for r in cluster.migration_records() if not r.refused]
    reasons = {r.reason for r in records}
    assert "exec" in reasons
    # Bookkeeping sanity: every host's process table is clean of guests.
    for host in cluster.hosts:
        assert host.kernel.foreign_pcbs() == []


def test_appendix_a_shape():
    """Most calls are location-independent — the thesis's key point:
    the shared FS makes forwarding the exception, not the rule."""
    from repro.kernel import classes_of

    histogram = classes_of()
    assert len(APPENDIX_A) >= 90
    assert histogram["local"] > histogram["home"] * 2
    assert histogram.get("unsupported", 0) < len(APPENDIX_A) * 0.12
