"""Events dispatched, pinned from above.

Lazy time-slicing is invisible in every simulated result, so a change
that silently falls back to one wake-up per quantum — for a lone
process, or for the processes sharing a core — keeps all the goldens and
fails only the benchmark.  These bounds make it fail the suite: each is
about a quarter above what the run costs today, and far below what it
cost with an event (or two) per quantum.
"""

from repro import SpriteCluster
from repro.faults import build_chaos_base, run_chaos

from . import golden_migration


def _compute_events(processes, seconds):
    cluster = SpriteCluster(workstations=1, start_daemons=False)

    def job(proc):
        yield from proc.compute(seconds)
        return 0

    pcbs = [
        cluster.hosts[0].spawn_process(job, name=f"job{i}")[0]
        for i in range(processes)
    ]
    cluster.sim.run_until_idle()
    assert all(abs(pcb.cpu_time - seconds) < 1e-9 for pcb in pcbs)
    return cluster.sim.events_fired


def test_lone_compute_costs_a_handful_of_events():
    # 300 quanta: 11 events today, 19 with a horizon per stretch, 600
    # with a wake-up per quantum.
    assert _compute_events(1, 3.0) <= 14


def test_shared_core_costs_events_per_process_not_per_quantum():
    # 1200 quanta among four processes: 19 events today, 2406 when a
    # contended quantum cost a grant and a boundary wake-up.
    assert _compute_events(4, 3.0) <= 24


def test_adversarial_chaos_smoke_event_budget():
    # CI's adversarial smoke at seed 0 (the run pinned as
    # ``adversarial-0``): 4218 events today, 4479 before shared cores
    # were replayed.
    kwargs = dict(golden_migration.CHAOS_RUNS["adversarial-0"])
    cluster = build_chaos_base(kwargs.pop("seed"), kwargs.pop("workstations")).fork()
    report = run_chaos(base=cluster, **kwargs)
    assert report.fingerprint == golden_migration.load()["chaos"]["adversarial-0"]
    assert cluster.sim.events_fired <= 4350
