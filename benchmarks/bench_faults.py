"""P3 — Fault-injection subsystem overhead benchmark.

``repro.faults`` promises to be free when unused: without an injector,
``lan.fabric`` stays ``None`` and every fault hook in the LAN, kernel,
and FS layers hides behind a test a healthy run already made.  This
benchmark pins that promise down by timing the same deterministic
cluster workload (the E10 production-usage slice from ``bench_engine``)
in three configurations:

* ``no_injector``    — the PR-2 status quo: no fault machinery at all.
* ``idle_injector``  — a :class:`~repro.faults.FaultInjector` installed
  with an *empty* plan: the link fabric answers every message, but no
  fault ever fires.  This is the worst case a fault-aware-but-healthy
  experiment pays.
* ``capped_injector`` — the idle injector plus every backpressure cap
  enabled at a bound the workload never reaches: admission checks run
  on every migration but never bind, so the event schedule must be
  *identical* to ``idle_injector`` (the strict zero-cost-when-off pin
  for the overload-backpressure layer).
* ``chaos_smoke``    — informative only: a short ``run_chaos`` gauntlet,
  so the cost of an actual fault storm is on record next to the idle
  numbers.

The idle/no-injector wall-time ratio is the headline.  The three
configurations are timed interleaved after a warm-up
(``common.interleaved_best``), and at smoke sizes the ratio may not
exceed ``MAX_OVERHEAD`` (1.15x: the injector must stay within
measurement noise).

``python -m repro experiment P3`` (and CI's ``pytest benchmarks``) runs
the smoke sizes under that gate; ``python benchmarks/bench_faults.py``
runs the full sizes.  The archive ``results/P3_faults.txt`` holds only
event counts and the gauntlet's outcome; walls, rates and the ratio go
to stdout and to the gitignored ``results/P3_faults.json``.
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import Any, Callable, Dict

if __package__ is None or __package__ == "":
    _SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

try:
    from common import (
        interleaved_best, publish_walls, run_simulated, throughput_row,
    )
except ImportError:  # imported as benchmarks.bench_faults
    from .common import (  # type: ignore
        interleaved_best, publish_walls, run_simulated, throughput_row,
    )

#: Workload sizes: full mode for trend numbers, smoke mode for CI.
#: The e10 sizes match ``bench_engine.SIZES`` so the ``no_injector``
#: row is directly comparable with the archived engine numbers.
SIZES = {
    "full": {"hosts": 6, "duration": 2 * 3600.0, "chaos_duration": 120.0},
    "smoke": {"hosts": 3, "duration": 600.0, "chaos_duration": 60.0},
}

#: Interleaved timed rounds per configuration; walls are the best.
#: A smoke run takes ~25 ms, so ten rounds of three cost under a second.
ROUNDS = 10

#: Smoke-mode ceiling on the idle-injector/no-injector wall ratio.
MAX_OVERHEAD = 1.15


def _run_e10(
    hosts: int, duration: float, with_injector: bool, with_caps: bool = False
) -> Callable[[], Any]:
    def build_and_run():
        from repro import SpriteCluster
        from repro.loadsharing import LoadSharingService
        from repro.workloads import ActivityModel, UsageSimulation

        if with_caps:
            # Backpressure caps on, but orders of magnitude above what
            # the workload can reach: checked on every migration, bound
            # on none.
            from repro.config import ClusterParams

            params = ClusterParams(
                seed=3,
                migration_max_incoming=1_000_000,
                migration_max_outgoing=1_000_000,
                migd_max_pending=1_000_000,
            )
            cluster = SpriteCluster(
                workstations=hosts, start_daemons=True, params=params
            )
        else:
            cluster = SpriteCluster(
                workstations=hosts, start_daemons=True, seed=3
            )
        service = LoadSharingService(cluster, architecture="centralized")
        cluster.standard_images()
        if with_injector:
            from repro.faults import FaultPlan

            cluster.faults(plan=FaultPlan(), service=service)
        usage = UsageSimulation(
            cluster,
            service,
            duration=duration,
            activity=ActivityModel(seed=17),
            think_time=60.0,
            batch_probability=0.08,
            batch_width=4,
            batch_unit_cpu=120.0,
            seed=17,
        )
        usage.run()
        return cluster.sim
    return build_and_run


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_all(smoke: bool = False) -> Dict[str, Any]:
    sizes = SIZES["smoke" if smoke else "full"]
    hosts, duration = sizes["hosts"], sizes["duration"]
    timed = interleaved_best({
        "no_injector": _run_e10(hosts, duration, False),
        "idle_injector": _run_e10(hosts, duration, True),
        "capped_injector": _run_e10(hosts, duration, True, with_caps=True),
    }, ROUNDS)
    results: Dict[str, Any] = {
        name: throughput_row(sim, wall) for name, (wall, sim) in timed.items()
    }
    # An idle fabric must not perturb the simulation itself: no RNG
    # draws, no extra delays, so the event count is identical.
    assert results["idle_injector"]["events"] == results["no_injector"]["events"], (
        "idle injector changed the event schedule: "
        f"{results['idle_injector']['events']} != {results['no_injector']['events']}"
    )
    # Backpressure caps that never bind are pure comparisons: they must
    # not add, remove, or reorder a single event either.
    assert results["capped_injector"]["events"] == results["no_injector"]["events"], (
        "unbinding backpressure caps changed the event schedule: "
        f"{results['capped_injector']['events']} != {results['no_injector']['events']}"
    )
    results["overhead_ratio"] = round(
        results["idle_injector"]["wall_s"] / results["no_injector"]["wall_s"], 4
    )

    from repro.faults import run_chaos

    start = time.perf_counter()
    report = run_chaos(
        seed=0, workstations=max(hosts, 4), duration=sizes["chaos_duration"],
        jobs=6, job_length=4.0,
    )
    results["chaos_smoke"] = {
        "wall_s": round(time.perf_counter() - start, 6),
        "faults": report.faults,
        "jobs_finished": report.jobs_finished,
        "violations": len(report.violations),
    }
    return results


def render(results: Dict[str, Any], mode: str) -> str:
    """The archived, deterministic lines."""
    lines = [
        f"P3: fault-injection overhead ({mode} sizes)",
        f"{'configuration':<16} {'events':>10}",
    ]
    for name in ("no_injector", "idle_injector", "capped_injector"):
        lines.append(f"{name:<16} {results[name]['events']:>10,.0f}")
    chaos = results["chaos_smoke"]
    lines.append(
        f"chaos gauntlet: {chaos['faults']} faults, "
        f"{chaos['jobs_finished']} jobs finished, "
        f"{chaos['violations']} violations"
    )
    return "\n".join(lines)


def render_walls(results: Dict[str, Any]) -> str:
    lines = [
        f"P3 walls (best of {ROUNDS}, interleaved; not archived)",
        f"{'configuration':<16} {'wall_s':>10} {'events/s':>12}",
    ]
    for name in ("no_injector", "idle_injector", "capped_injector"):
        row = results[name]
        lines.append(
            f"{name:<16} {row['wall_s']:>10.3f} {row['events_per_s']:>12,.0f}"
        )
    lines.append(f"idle-injector overhead: {results['overhead_ratio']:.3f}x")
    lines.append(f"chaos gauntlet: {results['chaos_smoke']['wall_s']:.3f}s wall")
    return "\n".join(lines)


def main() -> int:
    """Full sizes; writes ``results/P3_faults.json``."""
    results = run_all()
    print(render(results, "full"))
    publish_walls("P3_faults", "full", results, render_walls(results))
    if results["chaos_smoke"]["violations"]:
        print(
            f"FAIL: chaos gauntlet reported "
            f"{results['chaos_smoke']['violations']} invariant violation(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def test_faults_overhead(benchmark, archive):
    """pytest-benchmark entry point (``python -m repro experiment P3``)."""
    results = run_simulated(benchmark, lambda: run_all(smoke=True))
    archive("P3_faults", render(results, "smoke"))
    publish_walls("P3_faults", "smoke", results, render_walls(results))
    assert results["no_injector"]["events"] > 0
    assert results["chaos_smoke"]["violations"] == 0
    assert results["overhead_ratio"] <= MAX_OVERHEAD, (
        f"idle injector overhead {results['overhead_ratio']:.3f}x exceeds "
        f"the {MAX_OVERHEAD:.2f}x ceiling"
    )


if __name__ == "__main__":
    raise SystemExit(main())
