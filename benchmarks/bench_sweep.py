"""P2 — Copy-on-write sweep runner: setup cost and matrix wall time.

Two numbers justify ``repro.snapshot``:

* **Per-cell setup cost** — what a sweep cell pays before its first
  simulated event.  The fresh baseline builds the cluster inside each
  cell's child process; the forked path materializes the warmed base
  once in the parent and gives every cell a kernel-level
  copy-on-write image (``os.fork``), so its cost is a small constant
  independent of base size.  The smoke gate asserts forked setup is
  at most half the fresh build, per cell.
* **Crash-matrix wall time** — the 88-cell matrix of
  :mod:`repro.faults.crashmatrix`, fresh-sequential (the pre-snapshot
  code path) vs ``run_matrix`` at ``--workers`` 1 and 4 — with the
  byte-identical ``MatrixReport.fingerprint`` checked across all
  three, because a parallel sweep that changes answers is worthless.

Run standalone (``python benchmarks/bench_sweep.py [--smoke]``) or via
pytest; ``--json`` archives machine-readable results (the checked-in
before/after record lives in ``BENCH_sweep.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import Any, Dict, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster import SpriteCluster  # noqa: E402
from repro.faults.crashmatrix import (  # noqa: E402
    MatrixReport,
    matrix_cells,
    run_cell,
    run_matrix,
    spread_cells,
)
from repro.loadsharing import LoadSharingService  # noqa: E402
from repro.snapshot import SweepRunner  # noqa: E402

from common import archive_json, run_simulated  # noqa: E402

SIZES = {
    "full": {"base_hosts": 24, "setup_cells": 64, "matrix_cells": None},
    "smoke": {"base_hosts": 16, "setup_cells": 16, "matrix_cells": 8},
}

#: The smoke gate: a forked cell's setup must cost at most this
#: fraction of a fresh in-child build of the same base.
SETUP_RATIO_CEILING = 0.5

#: Full-mode parallel gate: workers=4 must reach this fraction of the
#: ideal speedup on the cores actually available — 3x on a 4-core
#: machine, a no-regression floor (0.75x) on a single-core container,
#: where parallel wall-clock gains are physically impossible.
PARALLEL_EFFICIENCY_FLOOR = 0.75


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Setup-cost measurement
# ----------------------------------------------------------------------
def build_warm_base(hosts: int) -> SpriteCluster:
    """A chaos-grade base: traced cluster + images + load sharing."""
    cluster = SpriteCluster(workstations=hosts, seed=0, trace=True)
    cluster.standard_images()
    LoadSharingService(cluster, architecture="centralized")
    return cluster


def _noop_cell(cluster: Any, cell: Any) -> int:
    return 0


def measure_setup(hosts: int, cells: int) -> Dict[str, float]:
    """Per-cell setup wall time, fresh-build vs copy-on-write fork.

    Both paths run the same no-op cell through the same fork/pipe
    harness, so the difference they report is purely "who builds the
    cluster, and how often".
    """
    fresh = SweepRunner(lambda: build_warm_base(hosts), workers=1)
    fresh.run([0], _noop_cell)  # warm the harness
    started = time.perf_counter()
    fresh.run(list(range(cells)), _noop_cell)
    fresh_per_cell = (time.perf_counter() - started) / cells

    started = time.perf_counter()
    base = build_warm_base(hosts)
    base_build = time.perf_counter() - started
    forked = SweepRunner(base, workers=1)
    forked.run([0], _noop_cell)
    started = time.perf_counter()
    forked.run(list(range(cells)), _noop_cell)
    fork_per_cell = (time.perf_counter() - started) / cells

    return {
        "base_hosts": hosts,
        "cells": cells,
        "base_build_s": round(base_build, 6),
        "fresh_per_cell_s": round(fresh_per_cell, 6),
        "fork_per_cell_s": round(fork_per_cell, 6),
        "fork_vs_fresh_ratio": round(fork_per_cell / fresh_per_cell, 4),
    }


# ----------------------------------------------------------------------
# Matrix wall-time measurement
# ----------------------------------------------------------------------
def run_matrix_fresh(seed: int, cells) -> MatrixReport:
    """The pre-snapshot baseline: build a fresh cluster per cell,
    sequentially, in this process (exactly the old ``run_matrix``)."""
    report = MatrixReport(seed=seed)
    for step, victim, kind in cells:
        report.cells.append(run_cell(step, victim, kind, seed=seed))
    return report


def measure_matrix(max_cells: Optional[int]) -> Dict[str, Any]:
    cells = spread_cells(matrix_cells(), max_cells)

    started = time.perf_counter()
    fresh = run_matrix_fresh(seed=0, cells=cells)
    fresh_s = time.perf_counter() - started

    walls = {}
    fingerprints = {"fresh_sequential": fresh.fingerprint}
    for workers in (1, 4):
        started = time.perf_counter()
        report = run_matrix(seed=0, cells=cells, workers=workers)
        walls[workers] = time.perf_counter() - started
        fingerprints[f"fork_workers{workers}"] = report.fingerprint

    return {
        "cells": len(cells),
        "fresh_sequential_s": round(fresh_s, 3),
        "fork_workers1_s": round(walls[1], 3),
        "fork_workers4_s": round(walls[4], 3),
        "speedup_workers4": round(fresh_s / walls[4], 2),
        "fingerprints": fingerprints,
        "fingerprints_identical": len(set(fingerprints.values())) == 1,
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_all(smoke: bool = False) -> Dict[str, Any]:
    sizes = SIZES["smoke" if smoke else "full"]
    return {
        "cpu_count": _cores(),
        "setup": measure_setup(sizes["base_hosts"], sizes["setup_cells"]),
        "matrix": measure_matrix(sizes["matrix_cells"]),
    }


def render(results: Dict[str, Any], mode: str) -> str:
    setup, matrix = results["setup"], results["matrix"]
    lines = [
        f"P2: copy-on-write sweep runner ({mode} sizes, "
        f"{results['cpu_count']} core(s))",
        f"setup per cell ({setup['base_hosts']}-host warm base, "
        f"{setup['cells']} cells):",
        f"  fresh build in child   {setup['fresh_per_cell_s'] * 1e3:8.3f} ms",
        f"  copy-on-write fork     {setup['fork_per_cell_s'] * 1e3:8.3f} ms"
        f"   ({setup['fork_vs_fresh_ratio']:.2f}x, gate <= "
        f"{SETUP_RATIO_CEILING}x)",
        f"crash matrix ({matrix['cells']} cells):",
        f"  fresh sequential       {matrix['fresh_sequential_s']:8.3f} s",
        f"  forked, workers=1      {matrix['fork_workers1_s']:8.3f} s",
        f"  forked, workers=4      {matrix['fork_workers4_s']:8.3f} s"
        f"   ({matrix['speedup_workers4']:.2f}x vs fresh)",
        f"  fingerprints identical: {matrix['fingerprints_identical']}",
    ]
    return "\n".join(lines)


def check(results: Dict[str, Any], smoke: bool) -> list:
    failures = []
    setup, matrix = results["setup"], results["matrix"]
    if setup["fork_vs_fresh_ratio"] > SETUP_RATIO_CEILING:
        failures.append(
            f"fork setup {setup['fork_vs_fresh_ratio']:.2f}x fresh build "
            f"exceeds the {SETUP_RATIO_CEILING}x ceiling"
        )
    if not matrix["fingerprints_identical"]:
        failures.append(
            "matrix fingerprints differ across execution modes: "
            f"{matrix['fingerprints']}"
        )
    if not smoke:
        # Ideal speedup is bounded by the cores the container grants.
        target = PARALLEL_EFFICIENCY_FLOOR * min(4, results["cpu_count"])
        if matrix["speedup_workers4"] < target:
            failures.append(
                f"workers=4 speedup {matrix['speedup_workers4']:.2f}x "
                f"below the {target:.2f}x target "
                f"({results['cpu_count']} core(s) available)"
            )
    return failures


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes + setup/determinism gates only (CI mode)",
    )
    parser.add_argument(
        "--json", type=pathlib.Path, default=None,
        help="also write results to this path "
             "(default: results/P2_sweep.json)",
    )
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    results = run_all(smoke=args.smoke)
    print(render(results, mode))
    payload = {"mode": mode, "results": results}
    if args.json is not None:
        args.json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"[wrote {args.json}]")
    else:
        print(f"[wrote {archive_json('P2_sweep', payload)}]")
    failures = check(results, smoke=args.smoke)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def test_sweep_runner(benchmark, archive):
    """pytest-benchmark entry point (smoke sizes)."""
    results = run_simulated(benchmark, lambda: run_all(smoke=True))
    archive("P2_sweep", render(results, "smoke"))
    assert check(results, smoke=True) == []


if __name__ == "__main__":
    raise SystemExit(main())
