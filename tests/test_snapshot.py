"""Tests for ``repro.snapshot``: sweeps whose cells build their clusters.

The contract under test is the one ``docs/sweeps.md`` advertises:

* a recipe's fork is a fresh build — same workload, same seed,
  byte-identical trace fingerprint — and shares nothing with its
  siblings;
* building any number of clusters in one process shifts no id counter;
* ``forked_map`` returns the in-process results for any worker count,
  hands every cell of a stripe a pristine cluster, charges a failure
  to its own cell only, and forks once per worker;
* a sweep cell builds its own cluster, and the crash-matrix fingerprint
  is identical for ``workers=1`` and ``workers=4``.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.cluster import SpriteCluster
from repro.faults import (
    build_chaos_base,
    run_chaos,
    run_matrix,
    trace_fingerprint,
)
from repro.faults.crashmatrix import matrix_cells, run_cell, spread_cells
from repro.sim import Sleep, spawn
from repro.snapshot import Snapshot, SweepError, forked_map, sweep


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
# A recipe's fork is a fresh build
# ----------------------------------------------------------------------
def test_fork_equals_fresh_golden():
    fresh = run_workload(build_base())
    forked = run_workload(Snapshot(build_base, 7).fork())
    assert forked == fresh


def test_fork_is_deterministic_across_forks():
    recipe = Snapshot(build_base)
    assert run_workload(recipe.fork()) == run_workload(recipe.fork())


def test_fork_independent_of_original_and_siblings():
    recipe = Snapshot(build_base)
    first = recipe.fork()
    first_fp = run_workload(first)  # dirty the first fork thoroughly
    # A later sibling is untouched by the first fork's run: it starts
    # at time zero and replays the workload byte-identically.
    sibling = recipe.fork()
    assert sibling is not first and sibling.sim is not first.sim
    assert first.sim.now > 0.0 and sibling.sim.now == 0.0
    assert run_workload(sibling) == first_fp


def test_fork_stream_ids_do_not_drift():
    # Per-cluster id state: building any number of clusters in one
    # process must not shift id counters — that was the old
    # module-global stream-id bug.
    assert run_workload(build_base()) == run_workload(build_base())


def test_chaos_base_round_trips_with_service_extra():
    recipe = build_chaos_base(seed=1, workstations=3)
    cluster = recipe.fork()
    service = cluster.extras["service"]
    assert service.cluster is cluster
    forked = run_chaos(duration=20.0, jobs=3, base=cluster)
    built = run_chaos(seed=1, workstations=3, duration=20.0, jobs=3)
    assert forked.fingerprint == built.fingerprint
    assert forked.to_dict() == built.to_dict()
    assert forked.seed == 1 and forked.workstations == 3


# ----------------------------------------------------------------------
# forked_map
# ----------------------------------------------------------------------
def _cell_fingerprint(index: int) -> str:
    return run_workload(build_base(), horizon=10.0 + index)


def test_sweep_runner_matches_sequential_and_workers():
    # Worker counts that give one stripe, uneven stripes, and more
    # workers than cells; the in-process loop is the oracle.
    sequential = [_cell_fingerprint(index) for index in range(5)]
    for workers in (1, 2, 3, 8):
        assert forked_map(_cell_fingerprint, 5, workers) == sequential, workers


def test_sweep_runner_live_base_stays_reusable():
    # Nothing a sweep runs touches the parent: the same sweep twice
    # gives the same results, and a recipe is never consumed.
    recipe = Snapshot(build_base)

    def job(index: int) -> str:
        return run_workload(recipe.fork(), horizon=10.0 + index)

    first = forked_map(job, 2, 2)
    assert forked_map(job, 2, 2) == first


def test_every_cell_of_a_stripe_starts_pristine():
    def job(index: int) -> str:
        cluster = build_base()
        assert cluster.sim.now == 0.0 and cluster.sim.events_fired == 0
        return run_workload(cluster, horizon=10.0 + index)

    in_process = [job(index) for index in range(5)]
    assert forked_map(job, 5, 2) == in_process


def test_sweep_runner_builder_mode():
    # run_matrix's forked cells equal run_cell called in this process.
    cells = spread_cells(matrix_cells(), 3)
    matrix = run_matrix(seed=0, cells=cells, horizon=60.0, workers=2)
    assert [c.to_dict() for c in matrix.cells] == [
        run_cell(*cell, seed=0, horizon=60.0).to_dict() for cell in cells
    ]


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
# Crash matrix: a cell builds its cluster; fingerprint is worker-invariant
# ----------------------------------------------------------------------
def test_a_sweep_cell_builds_its_cluster(monkeypatch):
    # In-process (no fork), so every construction is counted here.
    monkeypatch.setattr(sweep, "_has_fork", lambda: False)
    built = []
    real_init = SpriteCluster.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SpriteCluster, "__init__", counting_init)
    cells = spread_cells(matrix_cells(), 6)
    assert len(cells) == 6
    report = run_matrix(seed=0, cells=cells, horizon=60.0)
    assert len(report.cells) == 6
    assert len(built) == 6


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
