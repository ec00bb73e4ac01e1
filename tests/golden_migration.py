"""Pinned fixed-seed fingerprints of the migration mechanism.

``golden_migration_fingerprints.json`` records, per crash-matrix cell,
the outcome and trace fingerprint of ``run_matrix(seed=0)`` (all 132
cells), the matrix fingerprint of every seed in :data:`MATRIX_SEEDS`,
and the trace fingerprint of five chaos runs.  The matrix and chaos
tests compare against it, so a change to the mechanism that moves one
journal entry, RPC or trace record fails here instead of merely staying
self-consistent.  CI compares the full matrix the same way
(``python -m repro chaos --crash-matrix --json``), at seed 0 and over
every pinned seed.

Regenerate only when a behaviour change is intended, in its own commit
with the reason::

    PYTHONPATH=src python -m tests.golden_migration
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict

from repro.config import KB
from repro.faults import run_chaos, run_matrix

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_migration_fingerprints.json"

#: The chaos runs pinned: CI's two adversarial smoke seeds, the first
#: seed of its plain smoke and its checkpoint smoke, each with the CI
#: step's own sizes, and the first seed of the benchmark's
#: ``chaos_hybrid`` workload (adversarial, hybrid, incremental images).
CHAOS_RUNS: Dict[str, Dict] = {
    "adversarial-0": dict(seed=0, workstations=4, duration=60.0, jobs=6,
                          adversarial=True),
    "adversarial-11": dict(seed=11, workstations=4, duration=60.0, jobs=6,
                           adversarial=True),
    "checkpoint-0": dict(seed=0, workstations=4, duration=60.0, jobs=5,
                         random_churn=True, mtbf=25.0, policy="checkpoint",
                         checkpoint_interval=5.0, job_memory=65536),
    "hybrid-0": dict(seed=0, workstations=6, duration=240.0, jobs=24,
                     job_length=30.0, adversarial=True, policy="hybrid",
                     checkpoint_mode="incremental", job_memory=256 * KB),
    "plain-0": dict(seed=0, workstations=5, duration=90.0, jobs=8),
}


#: The cluster seeds whose whole-matrix fingerprints are pinned.
MATRIX_SEEDS = range(80)


def load() -> Dict:
    return json.loads(GOLDEN_PATH.read_text())


def cell_fingerprints(report) -> Dict[str, str]:
    """``"step|victim|kind" -> "outcome|trace sha256"`` for a MatrixReport."""
    return {
        f"{c.step}|{c.victim}|{c.kind}": f"{c.outcome}|{c.fingerprint}"
        for c in report.cells
    }


def assert_cells_match(report) -> None:
    """Every cell of ``report`` (a seed-0 run, any subset, any worker
    count) has the pinned outcome and trace."""
    pinned = load()["matrix"]["cells"]
    moved = {
        key: (pinned.get(key), got)
        for key, got in cell_fingerprints(report).items()
        if pinned.get(key) != got
    }
    assert not moved, f"crash-matrix cells diverged from {GOLDEN_PATH.name}: {moved}"


def regenerate() -> None:
    matrix = run_matrix(seed=0)
    golden = {
        "matrix": {
            "seed": 0,
            "fingerprint": matrix.fingerprint,
            "cells": cell_fingerprints(matrix),
        },
        "matrix_seeds": {
            str(seed): run_matrix(seed=seed, workers=2).fingerprint
            for seed in MATRIX_SEEDS
        },
        "chaos": {
            name: run_chaos(**kwargs).fingerprint
            for name, kwargs in sorted(CHAOS_RUNS.items())
        },
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
