"""Tests for the workload models: pmake, simfarm, lifetimes, activity."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import SpriteCluster
from repro.loadsharing import LoadSharingService
from repro.workloads import (
    ActivityModel,
    Pmake,
    SimFarm,
    SourceTree,
    ZhouLifetimes,
    fit_hyperexponential,
    idle_fraction_by_hour,
)


# ----------------------------------------------------------------------
# Zhou lifetimes
# ----------------------------------------------------------------------
def test_hyperexponential_fit_matches_moments():
    p, short, long_ = fit_hyperexponential(1.5, 19.1, p_short=0.99)
    assert p == pytest.approx(0.99)
    mean = p * short + (1 - p) * long_
    second = 2 * (p * short**2 + (1 - p) * long_**2)
    std = np.sqrt(second - mean**2)
    assert mean == pytest.approx(1.5, rel=0.02)
    assert std == pytest.approx(19.1, rel=0.05)


def test_lifetime_samples_match_target_distribution():
    sampler = ZhouLifetimes(seed=7)
    samples = np.array([sampler.sample() for _ in range(200_000)])
    assert samples.mean() == pytest.approx(1.5, rel=0.1)
    assert samples.std() == pytest.approx(19.1, rel=0.15)
    # Zhou: the vast majority of processes live under a second.
    assert (samples < 1.0).mean() > 0.75


def test_lifetimes_deterministic_by_seed():
    a, b = ZhouLifetimes(seed=3), ZhouLifetimes(seed=3)
    assert [a.sample() for _ in range(100)] == [b.sample() for _ in range(100)]


# ----------------------------------------------------------------------
# Activity model
# ----------------------------------------------------------------------
def test_activity_intervals_ordered_and_bounded():
    model = ActivityModel(seed=1)
    intervals = model.generate_intervals(0, duration=86400.0)
    assert intervals, "a day should include some sessions"
    last_stop = 0.0
    for start, stop in intervals:
        assert start >= last_stop
        assert stop <= 86400.0 + 1e-6
        last_stop = stop


def test_activity_day_busier_than_night():
    model = ActivityModel(seed=2)
    fractions = np.asarray(idle_fraction_by_hour(model, hosts=12, days=5))
    day = fractions[10:17].mean()     # 10:00-17:00
    night = np.concatenate([fractions[:6], fractions[22:]]).mean()
    assert night > day
    # The thesis's bands: roughly 60-80% idle by day, more at night.
    assert 0.5 < day < 0.9
    assert night > 0.7


def test_activity_deterministic_per_host_seed():
    model = ActivityModel(seed=5)
    assert model.generate_intervals(3, 3600.0) == model.generate_intervals(3, 3600.0)
    assert model.generate_intervals(3, 3600.0) != model.generate_intervals(4, 3600.0)


# ----------------------------------------------------------------------
# Source tree / pmake
# ----------------------------------------------------------------------
def test_source_tree_graph_shape():
    tree = SourceTree(files=5)
    assert len(tree.targets) == 6          # 5 compiles + 1 link
    ready = tree.ready_after(set())
    assert sorted(ready) == [f"compile:f{i}" for i in range(5)]
    done = set(ready)
    assert tree.ready_after(done) == ["link"]


def test_importing_workloads_does_not_import_networkx():
    """The build graph is two dicts; a graph library would be a quarter
    of every CLI start and benchmark set-up."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    probe = (
        "import sys; import repro.workloads; "
        "sys.exit('networkx' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def make_sharing_cluster(n_hosts, **kwargs):
    cluster = SpriteCluster(workstations=n_hosts, start_daemons=True, **kwargs)
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.standard_images()
    cluster.run(until=45.0)  # hosts become available
    return cluster, service


def run_pmake(cluster, service, tree, jobs):
    tree.populate(cluster)
    host = cluster.hosts[0]
    client = service.mig_client(host) if jobs > 1 else None
    pmake = Pmake(tree, client=client, max_jobs=jobs)

    def coordinator(proc):
        result = yield from pmake.run(proc)
        return result

    pcb, _ = host.spawn_process(coordinator, name="pmake")
    return cluster.run_until_complete(pcb.task)


def test_pmake_sequential_builds_everything():
    cluster, service = make_sharing_cluster(2)
    tree = SourceTree(files=4, compile_cpu=2.0, link_cpu=1.0)
    result = run_pmake(cluster, service, tree, jobs=1)
    assert result.targets_built == 5
    assert result.remote_jobs == 0
    # 4 compiles + 1 link of CPU, plus I/O overheads.
    assert result.elapsed > 9.0


def test_pmake_parallel_speedup():
    tree_kwargs = dict(files=8, compile_cpu=4.0, link_cpu=2.0)
    cluster_seq, service_seq = make_sharing_cluster(5)
    seq = run_pmake(cluster_seq, service_seq, SourceTree(**tree_kwargs), jobs=1)
    cluster_par, service_par = make_sharing_cluster(5)
    par = run_pmake(cluster_par, service_par, SourceTree(**tree_kwargs), jobs=4)
    assert par.targets_built == 9
    assert par.remote_jobs > 0
    speedup = seq.elapsed / par.elapsed
    assert speedup > 2.0, f"speedup only {speedup:.2f}"
    # Amdahl: the sequential link bounds it below the slot count.
    assert speedup < 4.5


def test_pmake_generates_server_name_lookups():
    cluster, service = make_sharing_cluster(3)
    tree = SourceTree(files=4, compile_cpu=1.0)
    lookups_before = cluster.file_server.lookups
    run_pmake(cluster, service, tree, jobs=3)
    # Each job opens sources, headers, image, output: lookups pile up.
    assert cluster.file_server.lookups - lookups_before > 20


# ----------------------------------------------------------------------
# Simulation farm
# ----------------------------------------------------------------------
def test_simfarm_utilization_exceeds_serial():
    cluster, service = make_sharing_cluster(6)
    host = cluster.hosts[0]
    client = service.mig_client(host)
    farm = SimFarm(client, jobs=10, cpu_seconds=20.0)

    def coordinator(proc):
        result = yield from farm.run(proc)
        return result

    pcb, _ = host.spawn_process(coordinator, name="farm")
    result = cluster.run_until_complete(pcb.task)
    assert result.jobs == 10
    assert result.remote_jobs >= 4
    # With ~6 hosts the farm sustains several CPUs' worth of work.
    assert result.effective_utilization > 250.0


def test_simfarm_local_only_baseline():
    cluster = SpriteCluster(workstations=1, start_daemons=False)
    host = cluster.hosts[0]
    farm = SimFarm(None, jobs=4, cpu_seconds=5.0)

    def coordinator(proc):
        result = yield from farm.run(proc)
        return result

    pcb, _ = host.spawn_process(coordinator, name="farm")
    result = cluster.run_until_complete(pcb.task)
    assert result.jobs == 4
    assert result.remote_jobs == 0
    # One CPU: effective utilization is pinned near 100%.
    assert result.effective_utilization < 120.0


def test_out_of_date_closure():
    tree = SourceTree(files=4)
    stale = tree.out_of_date([f"{tree.root}/f2.c"])
    assert stale == {"compile:f2", "link"}
    # A shared header dirties every compile.
    stale = tree.out_of_date([f"{tree.root}/h0.h"])
    assert stale == set(tree.targets)
    # Nothing changed: nothing to do.
    assert tree.out_of_date([]) == set()


def test_incremental_rebuild_builds_only_stale_targets():
    cluster, service = make_sharing_cluster(2)
    tree = SourceTree(files=6, compile_cpu=2.0, link_cpu=1.0)
    tree.populate(cluster)
    # Products of the previous full build are on the server.
    for i in range(6):
        cluster.add_file(f"{tree.root}/f{i}.o", size=tree.obj_bytes)
    pmake = Pmake(
        tree, client=None, max_jobs=1,
        changed_files=[f"{tree.root}/f3.c"],
    )

    def coordinator(proc):
        result = yield from pmake.run(proc)
        return result

    pcb, _ = cluster.hosts[0].spawn_process(coordinator, name="pmake")
    result = cluster.run_until_complete(pcb.task)
    # Just f3's compile and the link: 2 targets, ~3 CPU seconds.
    assert result.targets_built == 2
    assert result.elapsed < 8.0


def test_library_archive_tree_shape():
    tree = SourceTree(files=6, libs=2)
    assert len(tree.targets) == 6 + 2 + 1     # compiles + archives + link
    ready = set(tree.ready_after(set()))
    assert ready == {f"compile:f{i}" for i in range(6)}
    done = set(ready)
    assert set(tree.ready_after(done)) == {"archive:lib0", "archive:lib1"}
    done |= {"archive:lib0", "archive:lib1"}
    assert tree.ready_after(done) == ["link"]


def test_library_tree_out_of_date_goes_through_archive():
    tree = SourceTree(files=4, libs=2)
    stale = tree.out_of_date([f"{tree.root}/f0.c"])
    # f0 is in lib0 (round-robin by index): compile -> archive -> link.
    assert stale == {"compile:f0", "archive:lib0", "link"}


def test_library_tree_builds_end_to_end():
    cluster, service = make_sharing_cluster(4)
    tree = SourceTree(files=6, libs=2, compile_cpu=2.0, link_cpu=1.0)
    tree.populate(cluster)
    result = run_pmake(cluster, service, tree, jobs=3)
    assert result.targets_built == 9
    assert result.remote_jobs > 0


def test_too_many_libs_rejected():
    with pytest.raises(ValueError):
        SourceTree(files=2, libs=3)
