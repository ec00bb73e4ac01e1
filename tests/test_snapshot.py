"""Tests for ``repro.snapshot``: COW cluster forks and the sweep runner.

The contract under test is the one ``docs/snapshots.md`` advertises:

* a fork is indistinguishable from a freshly built cluster — same
  workload, same seed, byte-identical trace fingerprint;
* forks are independent of the base, the original, and each other;
* a base with a fault plan and injector armed *before* the snapshot
  round-trips: the forked run replays the faults byte-identically;
* a cluster that has already run cannot be captured (clear error);
* the parallel sweep merge is deterministic: the crash-matrix
  fingerprint is identical for ``workers=1`` and ``workers=4``.
"""

from __future__ import annotations

import gc
import os
import re

import pytest

from repro.cluster import SpriteCluster
from repro.faults import (
    FaultInjector,
    FaultPlan,
    build_chaos_base,
    run_chaos,
    run_matrix,
    trace_fingerprint,
)
from repro.faults.crashmatrix import matrix_cells, spread_cells
from repro.sim import Sleep, SnapshotError, spawn
from repro.snapshot import SweepError, SweepRunner, forked_map


# ----------------------------------------------------------------------
# Helpers: one small deterministic migration workload
# ----------------------------------------------------------------------
def build_base(seed: int = 7) -> SpriteCluster:
    cluster = SpriteCluster(workstations=3, seed=seed, trace=True)
    cluster.standard_images()
    return cluster


def _job(proc):
    yield from proc.compute(2.0)
    return 0


def run_workload(cluster: SpriteCluster, horizon: float = 30.0) -> str:
    """Spawn a job, migrate it once, run to ``horizon``; fingerprint."""
    home, target = cluster.hosts[0], cluster.hosts[1]
    pcb, _ctx = home.spawn_process(_job, name="snap-job")

    def driver():
        yield Sleep(0.5)
        yield from cluster.managers[home.address].migrate(
            pcb, target.address, reason="test"
        )

    spawn(cluster.sim, driver(), name="snap-driver", daemon=True)
    cluster.run(until=horizon)
    return trace_fingerprint(cluster.tracer)


# ----------------------------------------------------------------------
# Fork-equals-fresh golden
# ----------------------------------------------------------------------
def test_fork_equals_fresh_golden():
    fresh = run_workload(build_base())
    forked = run_workload(build_base().snapshot().fork())
    assert forked == fresh


def test_fork_is_deterministic_across_forks():
    snapshot = build_base().snapshot()
    assert run_workload(snapshot.fork()) == run_workload(snapshot.fork())


def test_snapshot_digest_is_stable():
    assert build_base().snapshot().digest == build_base().snapshot().digest


# ----------------------------------------------------------------------
# Fork independence
# ----------------------------------------------------------------------
def test_fork_independent_of_original_and_siblings():
    original = build_base()
    snapshot = original.snapshot()
    first = snapshot.fork()
    run_workload(first)  # dirty the first fork thoroughly
    # The original and a later sibling are untouched by the first
    # fork's run: both still replay the workload byte-identically.
    sibling_fp = run_workload(snapshot.fork())
    original_fp = run_workload(original)
    assert sibling_fp == original_fp
    assert first.sim.now > 0.0 and snapshot.fork().sim.now == 0.0


def test_fork_stream_ids_do_not_drift():
    # Per-cluster id state (satellite of the snapshot work): building
    # or forking any number of clusters in one process must not shift
    # id counters — that was the old module-global stream-id bug.
    fingerprints = {run_workload(build_base()) for _ in range(2)}
    snapshot = build_base().snapshot()
    fingerprints.add(run_workload(snapshot.fork()))
    assert len(fingerprints) == 1


def _keeps_attributes_inline(obj) -> bool:
    """Whether CPython still holds ``obj``'s attributes in the object
    itself: once ``__dict__`` has been asked for, the dict becomes one
    of the object's referents and every attribute access goes through
    it.  The referents are listed *before* this function asks."""
    referents = gc.get_referents(obj)
    return not any(referent is obj.__dict__ for referent in referents)


def test_materialized_instances_keep_attributes_inline():
    # Unpickling an instance through ``obj.__dict__`` costs it its
    # inline attributes, and a cell on such a cluster 20-30 % of its
    # speed; ``Snapshot.capture`` writes state that ``setattr`` restores.
    built, fork = build_base(), build_base().snapshot().fork()
    for pick in (
        lambda c: c,
        lambda c: c.lan,
        lambda c: c.hosts[0],
        lambda c: c.hosts[0].cpu,
        lambda c: c.hosts[0].rpc,
        lambda c: c.managers[c.hosts[0].address],
    ):
        assert _keeps_attributes_inline(pick(fork)) == _keeps_attributes_inline(
            pick(built)
        ), type(pick(built)).__name__


# ----------------------------------------------------------------------
# Snapshot-after-fault round-trip
# ----------------------------------------------------------------------
def test_snapshot_with_armed_faults_round_trips():
    def armed(seed: int = 3) -> SpriteCluster:
        cluster = build_base(seed)
        plan = FaultPlan()
        plan.host_outage(4.0, cluster.hosts[2], 6.0)
        plan.partition(12.0, [cluster.hosts[0].address])
        plan.heal(16.0)
        FaultInjector(cluster, plan).start()
        return cluster

    fresh = run_workload(armed())
    forked = run_workload(armed().snapshot().fork())
    assert forked == fresh


def test_chaos_base_round_trips_with_service_extra():
    snapshot = build_chaos_base(seed=1, workstations=3)
    assert snapshot.meta["extras"] == ["service"]
    a = run_chaos(duration=20.0, jobs=3, base=snapshot)
    b = run_chaos(duration=20.0, jobs=3, base=snapshot.fork())
    assert a.fingerprint == b.fingerprint
    assert a.seed == 1 and a.workstations == 3


# ----------------------------------------------------------------------
# Capture preflight
# ----------------------------------------------------------------------
def test_snapshot_of_run_cluster_raises():
    cluster = build_base()
    cluster.run(until=1.0)  # daemons are now half-run generators
    with pytest.raises(SnapshotError):
        cluster.snapshot()


def test_snapshot_error_names_unpicklable_state():
    cluster = build_base()
    cluster.hosts[0].rpc.fallback = lambda packet: None
    with pytest.raises(SnapshotError, match="not snapshotable"):
        cluster.snapshot()


# ----------------------------------------------------------------------
# Sweep runner
# ----------------------------------------------------------------------
def _cell_fingerprint(cluster, cell):
    return run_workload(cluster, horizon=10.0 + cell)


def test_sweep_runner_matches_sequential_and_workers():
    # Worker counts that give one stripe, uneven stripes, and more
    # workers than cells; ``cow=False`` (in-process) is the oracle.
    snapshot = build_base().snapshot()
    cells = [0, 1, 2, 3, 4]
    sequential = SweepRunner(snapshot, workers=1, cow=False).run(
        cells, _cell_fingerprint
    )
    for workers in (1, 2, 3, 8):
        assert SweepRunner(snapshot, workers=workers).run(
            cells, _cell_fingerprint
        ) == sequential, workers


def test_sweep_runner_live_base_stays_reusable():
    base = build_base()
    runner = SweepRunner(base, workers=2)
    first = runner.run([0, 1], _cell_fingerprint)
    assert base.sim.now == 0.0  # cells ran on materializations, not on it
    assert runner.run([0, 1], _cell_fingerprint) == first


def test_every_cell_of_a_stripe_starts_pristine():
    def cell_fn(cluster, cell):
        assert cluster.sim.now == 0.0 and cluster.sim.events_fired == 0
        return run_workload(cluster, horizon=10.0 + cell)

    base = build_base()
    cells = [0, 1, 2, 3, 4]
    in_process = SweepRunner(base, cow=False).run(cells, cell_fn)
    assert SweepRunner(base, workers=2).run(cells, cell_fn) == in_process
    assert base.sim.now == 0.0 and base.sim.events_fired == 0


def test_sweep_runner_builder_mode():
    assert SweepRunner(build_base, workers=2).run(
        [0, 1], _cell_fingerprint
    ) == SweepRunner(build_base().snapshot(), workers=2).run(
        [0, 1], _cell_fingerprint
    )


def test_forked_map_propagates_child_failures():
    def job(index: int) -> int:
        if index == 1:
            raise ValueError("boom in child")
        return index

    with pytest.raises(SweepError, match="boom in child"):
        forked_map(job, 3, workers=2)


def _unpicklable(index):
    return lambda: index


def _exit_3(index):
    os._exit(3)


@pytest.mark.parametrize(
    "misbehave, failed, names",
    [
        (lambda i: 1 // 0, [3], "ZeroDivisionError: "),
        (_unpicklable, [3], "pickle"),
        # A dead child also takes the cell of its stripe it never reached.
        (_exit_3, [3, 5], "exited with status 3"),
    ],
    ids=["raises", "result-does-not-pickle", "child-dies"],
)
def test_a_failure_costs_its_own_cell(tmp_path, misbehave, failed, names):
    def job(index: int):
        if index == 3:
            return misbehave(index)
        (tmp_path / str(index)).touch()
        return index

    with pytest.raises(SweepError) as raised:
        forked_map(job, 6, workers=2)  # stripes 0,2,4 and 1,3,5
    message = str(raised.value)
    assert [int(n) for n in re.findall(r"^cell (\d+)", message, re.M)] == failed
    assert names in message
    assert sorted(int(path.name) for path in tmp_path.iterdir()) == [
        index for index in range(6) if index not in failed
    ]
    with pytest.raises(ChildProcessError):  # every child reaped: no zombie
        os.waitpid(-1, os.WNOHANG)


# ----------------------------------------------------------------------
# Crash matrix: fingerprint is worker-count-invariant
# ----------------------------------------------------------------------
def test_matrix_fingerprint_identical_any_worker_count():
    cells = [
        ("negotiated", "source", "crash"),
        ("shipped", "target", "partition"),
        ("committed", "home", "crash"),
        ("home_updated", "fs", "partition"),
    ]
    one = run_matrix(seed=0, cells=cells, horizon=60.0, workers=1)
    four = run_matrix(seed=0, cells=cells, horizon=60.0, workers=4)
    assert one.fingerprint == four.fingerprint
    assert [c.to_dict() for c in one.cells] == [
        c.to_dict() for c in four.cells
    ]


def test_matrix_forks_once_per_worker(monkeypatch):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    cells = spread_cells(matrix_cells(), 8)
    assert len(cells) == 8
    for workers in (2, 1):
        del forks[:]
        run_matrix(seed=0, cells=cells, horizon=60.0, workers=workers)
        assert len(forks) == workers
