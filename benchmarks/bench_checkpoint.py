"""P8 — Migration vs checkpoint/restart: the fault-tolerance tradeoff.

The thesis motivates migration partly as a way to *avoid* losing work;
checkpoint/restart (Condor's approach) is the classic alternative the
``repro.checkpoint`` subsystem adds.  This benchmark reproduces the
tradeoff study: the chaos gauntlet under seeded-random host churn,
swept over

* **failure rate** — mean time between host crashes (``mtbf``),
* **checkpoint interval** — how often the daemon images each job,
* **fault policy** — ``migrate`` (proactive migration only, today's
  behaviour), ``checkpoint`` (periodic checkpoint/restart only), and
  ``hybrid`` (both),

and in full mode an **image size** axis (per-job address space, which
sizes every checkpoint image).  Each cell reports job availability
(fraction of submitted jobs finishing with exit 0) and goodput
(successful job-seconds per sim second); together they trace the
curves: frequent checkpoints buy availability at image-write cost,
rare ones lose more progress per crash, and proactive migration alone
cannot save a job that was resident at crash time.

Cells fan out over ``forked_map`` workers, each cell building its own
cluster.  Determinism is load-bearing and checked on every run:
the sweep fingerprint (SHA-256 over every cell's trace fingerprint in
grid order) must be byte-identical at ``workers=1`` and ``workers=4``.

The other pinned promise is **zero cost when off**: a ``migrate``-policy
run constructs no checkpoint machinery, and even an instantiated-but-
unused :class:`~repro.checkpoint.CheckpointService` (nothing
registered, so no daemon ever spawns) must leave the gauntlet's event
schedule and trace fingerprint identical, with wall-time overhead at
smoke sizes under ``MAX_IDLE_OVERHEAD`` (1.05x; the two configurations
are timed interleaved, with ``common.interleaved_best``).

``python -m repro experiment P8`` (and CI's ``pytest benchmarks``) runs
the smoke sweep under every gate; ``python benchmarks/bench_checkpoint.py``
runs the full sweep.  The archive ``results/P8_checkpoint.txt`` holds
only deterministic lines (the sweep, both fingerprints, the idle event
count); walls, rates and the overhead ratio go to stdout and to the
gitignored ``results/P8_checkpoint.json``.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
from typing import Any, Callable, Dict, List, Tuple

if __package__ is None or __package__ == "":
    _SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

try:
    from common import (
        interleaved_best, publish_walls, run_simulated, throughput_row,
    )
except ImportError:  # imported as benchmarks.bench_checkpoint
    from .common import (  # type: ignore
        interleaved_best, publish_walls, run_simulated, throughput_row,
    )

KB = 1024

#: Sweep axes: every mode covers >= 3 failure rates x 3 checkpoint
#: intervals x all 3 policies; full mode adds the image-size axis and a
#: longer gauntlet.
SIZES = {
    "full": {
        "hosts": 4, "duration": 60.0, "jobs": 6, "job_length": 6.0,
        "mtbfs": [12.0, 25.0, 50.0],
        "intervals": [2.5, 5.0, 10.0],
        "image_sizes": [64 * KB, 512 * KB],
        "workers_check": 4,
    },
    "smoke": {
        "hosts": 4, "duration": 40.0, "jobs": 4, "job_length": 4.0,
        "mtbfs": [10.0, 20.0, 40.0],
        "intervals": [2.5, 5.0, 10.0],
        "image_sizes": [64 * KB],
        "workers_check": 4,
    },
}

#: The gauntlet the idle-overhead pin times (small, fault-rich).
IDLE_PIN = {"seed": 11, "hosts": 4, "duration": 50.0, "jobs": 5}

#: Interleaved timed rounds of the idle pin: the ratio gate is tight and
#: the true cost is ~1.00x, so the best-of-N needs room to converge.
IDLE_ROUNDS = 6

#: Smoke-mode ceiling on the idle-service/no-service wall ratio.
MAX_IDLE_OVERHEAD = 1.05


# ----------------------------------------------------------------------
# The policy sweep
# ----------------------------------------------------------------------
def _build_grid(sizes: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One cell per (mtbf, policy[, interval, image size]) point.

    ``migrate`` takes no checkpoints, so it gets one cell per
    (mtbf, image size) rather than one per interval.
    """
    grid: List[Dict[str, Any]] = []
    for mtbf in sizes["mtbfs"]:
        for memory in sizes["image_sizes"]:
            grid.append({
                "policy": "migrate", "mtbf": mtbf,
                "interval": None, "memory": memory,
            })
            for policy in ("checkpoint", "hybrid"):
                for interval in sizes["intervals"]:
                    grid.append({
                        "policy": policy, "mtbf": mtbf,
                        "interval": interval, "memory": memory,
                    })
    return grid


def _run_sweep(
    sizes: Dict[str, Any], workers: int
) -> Tuple[List[Dict[str, Any]], str]:
    """Run the grid; returns (cell rows, sweep fingerprint)."""
    from repro.faults.chaos import run_chaos
    from repro.snapshot import forked_map

    grid = _build_grid(sizes)

    def cell_job(index):
        cell = grid[index]
        report = run_chaos(
            seed=0,
            workstations=sizes["hosts"],
            duration=sizes["duration"],
            random_churn=True,
            mtbf=cell["mtbf"],
            jobs=sizes["jobs"],
            job_length=sizes["job_length"],
            policy=cell["policy"],
            checkpoint_interval=cell["interval"],
            job_memory=cell["memory"],
        )
        return {
            **cell,
            "availability": round(report.availability, 4),
            "goodput": round(report.goodput, 4),
            "jobs_ok": report.jobs_ok,
            "jobs_lost": report.jobs_lost,
            "migrations": report.migrations,
            "checkpoints": report.checkpoints,
            "restores": report.restores,
            "torn_images": report.torn_images,
            "unrecoverable": report.unrecoverable,
            "violations": len(report.violations),
            "fingerprint": report.fingerprint,
        }

    rows = forked_map(cell_job, len(grid), workers)
    payload = "\n".join(
        f"{row['policy']}|{row['mtbf']}|{row['interval']}|{row['memory']}"
        f"|{row['fingerprint']}"
        for row in rows
    )
    fingerprint = hashlib.sha256(payload.encode()).hexdigest()
    return rows, fingerprint


# ----------------------------------------------------------------------
# The zero-cost-when-off pin
# ----------------------------------------------------------------------
def _run_gauntlet(idle_service: bool) -> Callable[[], Any]:
    """The golden chaos gauntlet, with or without an idle (instantiated,
    never registered) CheckpointService attached before the run."""

    def build_and_run():
        from repro.faults.chaos import build_chaos_base, run_chaos

        cluster = build_chaos_base(IDLE_PIN["seed"], IDLE_PIN["hosts"]).fork()
        if idle_service:
            from repro.checkpoint import CheckpointService

            CheckpointService(cluster)  # nothing registered: no daemons
        report = run_chaos(
            duration=IDLE_PIN["duration"], jobs=IDLE_PIN["jobs"],
            base=cluster,
        )
        return cluster.sim, report

    return build_and_run


def _idle_overhead() -> Dict[str, Any]:
    timed = interleaved_best(
        {"no_service": _run_gauntlet(False), "idle_service": _run_gauntlet(True)},
        IDLE_ROUNDS,
    )
    rows = {
        name: {**throughput_row(sim, wall), "fingerprint": report.fingerprint}
        for name, (wall, (sim, report)) in timed.items()
    }
    none_row, idle_row = rows["no_service"], rows["idle_service"]
    assert idle_row["events"] == none_row["events"], (
        "idle CheckpointService changed the event schedule: "
        f"{idle_row['events']} != {none_row['events']}"
    )
    assert idle_row["fingerprint"] == none_row["fingerprint"], (
        "idle CheckpointService changed the trace fingerprint"
    )
    return {
        **rows,
        "overhead_ratio": round(idle_row["wall_s"] / none_row["wall_s"], 4),
        "identical_schedule": True,
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_all(smoke: bool = False) -> Dict[str, Any]:
    sizes = SIZES["smoke" if smoke else "full"]

    rows, fingerprint = _run_sweep(sizes, workers=1)
    rows_parallel, fingerprint_parallel = _run_sweep(
        sizes, workers=sizes["workers_check"]
    )
    assert fingerprint_parallel == fingerprint, (
        f"sweep nondeterministic across worker counts: "
        f"{fingerprint[:16]} != {fingerprint_parallel[:16]}"
    )
    del rows_parallel

    results: Dict[str, Any] = {
        "sweep": {
            "cells": rows,
            "fingerprint": fingerprint,
            "workers_verified": [1, sizes["workers_check"]],
        },
        "idle_overhead": _idle_overhead(),
        "violations": sum(row["violations"] for row in rows),
    }
    return results


def render(results: Dict[str, Any], mode: str) -> str:
    lines = [
        f"P8: migration vs checkpoint/restart tradeoff ({mode} sizes)",
        f"{'policy':<12} {'mtbf':>6} {'ckpt-int':>8} {'image':>8} "
        f"{'avail':>6} {'goodput':>8} {'ckpts':>6} {'restores':>8} "
        f"{'torn':>5} {'migr':>5}",
    ]
    for row in results["sweep"]["cells"]:
        interval = "-" if row["interval"] is None else f"{row['interval']:g}"
        lines.append(
            f"{row['policy']:<12} {row['mtbf']:>6g} {interval:>8} "
            f"{row['memory'] // KB:>6}KB {row['availability']:>6.2f} "
            f"{row['goodput']:>8.3f} {row['checkpoints']:>6} "
            f"{row['restores']:>8} {row['torn_images']:>5} "
            f"{row['migrations']:>5}"
        )
    workers = results["sweep"]["workers_verified"]
    lines.append(
        f"sweep fingerprint {results['sweep']['fingerprint'][:16]} "
        f"(byte-identical at workers={workers[0]} and workers={workers[1]})"
    )
    idle = results["idle_overhead"]["no_service"]
    lines.append(
        f"zero-cost-when-off: idle service leaves the schedule identical "
        f"({idle['events']:,} events, fingerprint {idle['fingerprint'][:16]})"
    )
    lines.append(f"invariant violations across all cells: {results['violations']}")
    return "\n".join(lines)


def render_walls(results: Dict[str, Any]) -> str:
    idle = results["idle_overhead"]
    return (
        f"P8 walls (best of {IDLE_ROUNDS}, interleaved; not archived): "
        f"no service {idle['no_service']['wall_s']:.3f}s, idle service "
        f"{idle['idle_service']['wall_s']:.3f}s, overhead "
        f"{idle['overhead_ratio']:.3f}x"
    )


def main() -> int:
    """The full sweep; writes ``results/P8_checkpoint.json``."""
    results = run_all()
    print(render(results, "full"))
    publish_walls("P8_checkpoint", "full", results, render_walls(results))
    if results["violations"]:
        print(
            f"FAIL: {results['violations']} invariant violation(s) across "
            f"sweep cells",
            file=sys.stderr,
        )
        return 1
    return 0


def test_checkpoint_tradeoff(benchmark, archive):
    """pytest-benchmark entry point (``python -m repro experiment P8``)."""
    results = run_simulated(benchmark, lambda: run_all(smoke=True))
    archive("P8_checkpoint", render(results, "smoke"))
    publish_walls("P8_checkpoint", "smoke", results, render_walls(results))
    assert results["violations"] == 0
    assert results["idle_overhead"]["identical_schedule"]
    rows = results["sweep"]["cells"]
    assert {row["policy"] for row in rows} == {"migrate", "checkpoint", "hybrid"}
    assert any(row["checkpoints"] > 0 for row in rows)
    ratio = results["idle_overhead"]["overhead_ratio"]
    assert ratio <= MAX_IDLE_OVERHEAD, (
        f"idle checkpoint-service overhead {ratio:.3f}x exceeds the "
        f"{MAX_IDLE_OVERHEAD:.2f}x ceiling"
    )


if __name__ == "__main__":
    raise SystemExit(main())
