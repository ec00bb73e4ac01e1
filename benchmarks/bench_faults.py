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

A second ablation pins the migration transaction journal (PR 4): the
same fault-free migration-churn workload with
``migration_txn_journal`` on vs off must produce an *identical* event
schedule (the journal is bookkeeping, never a scheduling participant —
this is the strict pin) and stay within ``--max-journal-overhead``
wall time.  The measured cost is ~1.005x; the default ceiling (1.05)
sits above this noisy-CI measurement floor, not above the true cost.

The idle/no-injector wall-time ratio is the headline: in ``--smoke``
mode the run fails if it exceeds ``--max-overhead`` (default 1.15, i.e.
the injector must stay within measurement noise).

Run standalone (``python benchmarks/bench_faults.py [--smoke]``) or via
the pytest entry; results are written to ``results/P3_faults.json``
(not checked in).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple

if __package__ is None or __package__ == "":
    _SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

try:
    from common import archive_json, run_simulated, throughput_row
except ImportError:  # imported as benchmarks.bench_faults
    from .common import (  # type: ignore
        archive_json, run_simulated, throughput_row,
    )

#: Workload sizes: full mode for trend numbers, smoke mode for CI.
#: The e10 sizes match ``bench_engine.SIZES`` so the ``no_injector``
#: row is directly comparable with the archived engine numbers.
SIZES = {
    "full": {
        "hosts": 6, "duration": 2 * 3600.0, "chaos_duration": 120.0,
        "migrations": 64,
    },
    "smoke": {
        "hosts": 3, "duration": 600.0, "chaos_duration": 60.0,
        "migrations": 48,
    },
}


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


def _run_migration_churn(migrations: int, journal: bool) -> Callable[[], Any]:
    """Fault-free migration ping-pong: one process with an open stream,
    migrated back and forth ``migrations`` times while it computes and
    writes.  The only variable is the write-ahead journal flag."""

    def build_and_run():
        from repro import SpriteCluster
        from repro.config import ClusterParams
        from repro.fs import OpenMode
        from repro.sim import Sleep, spawn

        params = ClusterParams(seed=5, migration_txn_journal=journal)
        cluster = SpriteCluster(workstations=3, params=params)
        cluster.standard_images()
        a, b = cluster.hosts[0], cluster.hosts[1]

        def job(proc):
            fd = yield from proc.open(
                "/bench-churn", OpenMode.WRITE | OpenMode.CREATE
            )
            for _ in range(migrations * 6):
                yield from proc.compute(0.5)
                yield from proc.write(fd, 256)
            yield from proc.close(fd)
            return 0

        pcb, _ = a.spawn_process(job, name="churn")

        def driver():
            yield Sleep(0.5)
            here, there = a, b
            for _ in range(migrations):
                yield from cluster.managers[here.address].migrate(
                    pcb, there.address, reason="bench"
                )
                here, there = there, here
                yield Sleep(1.0)

        spawn(cluster.sim, driver(), name="bench-driver")
        cluster.run_until_complete(pcb.task)
        return cluster.sim

    return build_and_run


def _measure(build_and_run: Callable[[], Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    sim = build_and_run()
    wall = time.perf_counter() - start
    return wall, sim


def _timed_row(build_and_run: Callable[[], Any], repeats: int) -> Dict[str, float]:
    walls = []
    for _ in range(repeats):
        wall, sim = _measure(build_and_run)
        walls.append(wall)
    return throughput_row(sim, min(walls))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_all(smoke: bool = False, repeats: int = 3) -> Dict[str, Any]:
    sizes = SIZES["smoke" if smoke else "full"]
    hosts, duration = sizes["hosts"], sizes["duration"]

    # One untimed warm-up so import/allocation costs don't land on
    # whichever configuration happens to run first (visible at repeats=1).
    _measure(_run_e10(hosts, min(duration, 120.0), False))

    results: Dict[str, Any] = {
        "no_injector": _timed_row(_run_e10(hosts, duration, False), repeats),
        "idle_injector": _timed_row(_run_e10(hosts, duration, True), repeats),
        "capped_injector": _timed_row(
            _run_e10(hosts, duration, True, with_caps=True), repeats
        ),
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

    # Migration-txn-journal ablation: journaling is pure bookkeeping, so
    # it must never perturb the event schedule of a fault-free run.
    # The 2% wall-time pin is far below ambient scheduler noise for a
    # sequential best-of-N, so the two configurations are sampled
    # *interleaved* (on, off, on, off, ...): both see the same noise
    # environment and the min-of-N ratio converges on the true cost.
    migrations = sizes["migrations"]
    _measure(_run_migration_churn(max(migrations // 4, 4), True))
    on_build = _run_migration_churn(migrations, True)
    off_build = _run_migration_churn(migrations, False)
    on_walls, off_walls = [], []
    for _ in range(max(repeats, 3) * 4):
        wall, on_sim = _measure(on_build)
        on_walls.append(wall)
        wall, off_sim = _measure(off_build)
        off_walls.append(wall)
    journal_on = throughput_row(on_sim, min(on_walls))
    journal_off = throughput_row(off_sim, min(off_walls))
    assert journal_on["events"] == journal_off["events"], (
        "txn journal changed the event schedule: "
        f"{journal_on['events']} != {journal_off['events']}"
    )
    results["txn_journal"] = {
        "migrations": migrations,
        "journal_on": journal_on,
        "journal_off": journal_off,
        "overhead_ratio": round(
            journal_on["wall_s"] / journal_off["wall_s"], 4
        ),
    }

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
    lines = [
        f"P3: fault-injection overhead ({mode} sizes, best-of-N wall time)",
        f"{'configuration':<16} {'events':>10} {'wall_s':>10} {'events/s':>12}",
    ]
    for name in ("no_injector", "idle_injector", "capped_injector"):
        row = results[name]
        lines.append(
            f"{name:<16} {row['events']:>10,.0f} {row['wall_s']:>10.3f} "
            f"{row['events_per_s']:>12,.0f}"
        )
    lines.append(f"idle-injector overhead: {results['overhead_ratio']:.3f}x")
    txn = results["txn_journal"]
    for name in ("journal_on", "journal_off"):
        row = txn[name]
        lines.append(
            f"{name:<16} {row['events']:>10,.0f} {row['wall_s']:>10.3f} "
            f"{row['events_per_s']:>12,.0f}"
        )
    lines.append(
        f"txn-journal overhead ({txn['migrations']} migrations, identical "
        f"schedule): {txn['overhead_ratio']:.3f}x"
    )
    chaos = results["chaos_smoke"]
    lines.append(
        f"chaos gauntlet (informative): {chaos['wall_s']:.3f}s wall, "
        f"{chaos['faults']} faults, {chaos['jobs_finished']} jobs finished, "
        f"{chaos['violations']} violations"
    )
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes + overhead ceiling check (CI mode)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repetitions (best-of)"
    )
    parser.add_argument(
        "--json", type=pathlib.Path, default=None,
        help="also write results to this path (default: results/P3_faults.json)",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=1.15,
        help="smoke mode fails if idle-injector/no-injector wall ratio "
        "exceeds this",
    )
    parser.add_argument(
        "--max-journal-overhead", type=float, default=1.05,
        help="smoke mode fails if the journal-on/journal-off wall ratio "
        "for fault-free migrations exceeds this (true cost ~1.005x; the "
        "ceiling allows for shared-runner timing noise)",
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    results = run_all(smoke=args.smoke, repeats=args.repeats)
    print(render(results, mode))
    payload = {"mode": mode, "results": results}
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"[wrote {args.json}]")
    else:
        print(f"[wrote {archive_json('P3_faults', payload)}]")
    if args.smoke and results["overhead_ratio"] > args.max_overhead:
        print(
            f"FAIL: idle injector overhead {results['overhead_ratio']:.3f}x "
            f"exceeds ceiling {args.max_overhead:.2f}x",
            file=sys.stderr,
        )
        return 1
    journal_ratio = results["txn_journal"]["overhead_ratio"]
    if args.smoke and journal_ratio > args.max_journal_overhead:
        print(
            f"FAIL: txn-journal overhead {journal_ratio:.3f}x exceeds "
            f"ceiling {args.max_journal_overhead:.2f}x",
            file=sys.stderr,
        )
        return 1
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
    # Best-of-3 even under pytest: the smoke runs are ~30 ms each, and
    # single measurements at that scale are dominated by scheduler noise.
    results = run_simulated(benchmark, lambda: run_all(smoke=True, repeats=3))
    archive("P3_faults", render(results, "smoke"))
    archive_json("P3_faults", {"mode": "smoke", "results": results})
    assert results["no_injector"]["events"] > 0
    assert results["chaos_smoke"]["violations"] == 0
    txn = results["txn_journal"]
    assert txn["journal_on"]["events"] == txn["journal_off"]["events"]


if __name__ == "__main__":
    raise SystemExit(main())
