"""E11 — Placement-only vs migration-with-eviction (thesis ch. 2/8).

The [ELZ88]/[KL88] debate, resolved Sprite's way: eviction migration is
justified less by load-balance gains than by *workstation autonomy*.
The scenario places a batch of long jobs on idle hosts whose owners
then return and stay.  Placement-only leaves guests squatting (owners
suffer); Sprite evicts them home (jobs slow down instead).
"""

from __future__ import annotations

from repro.baselines import run_placement_scenario
from repro.obs import Table

from common import run_simulated


def build_artifacts():
    outcomes = {}
    for policy in ("placement", "sprite"):
        outcomes[policy] = run_placement_scenario(
            policy, hosts=6, jobs=5, job_cpu=120.0, owners_return_after=40.0
        )
    table = Table(
        title="E11: placement-only vs eviction migration "
              "(owners return mid-batch and stay)",
        columns=["policy", "mean turnaround (s)", "max turnaround (s)",
                 "owner interference (guest-busy s)", "evictions"],
        notes="interference = guest CPU seconds while the owner was present",
    )
    for policy, outcome in outcomes.items():
        table.add_row(
            policy,
            outcome.mean_turnaround,
            outcome.max_turnaround,
            outcome.owner_interference,
            outcome.evictions,
        )
    return table, outcomes


def test_e11_placement_vs_migration(benchmark, archive):
    table, outcomes = run_simulated(benchmark, build_artifacts)
    archive("E11_placement_vs_migration", table.render())
    placement = outcomes["placement"]
    sprite = outcomes["sprite"]
    # Placement-only makes owners host guests for (most of) the jobs'
    # remaining lifetimes; Sprite's interference is near zero.
    assert placement.owner_interference > 60.0
    assert sprite.owner_interference < placement.owner_interference / 5
    # The price: evicted jobs pile up at home and finish later.
    assert sprite.evictions >= 1
    assert sprite.mean_turnaround > placement.mean_turnaround
    # Both policies finish all jobs.
    assert len(placement.turnarounds) == 5
    assert len(sprite.turnarounds) == 5
