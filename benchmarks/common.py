"""Helpers importable by the benchmark modules."""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def sweep_workers(cap: int = 4) -> int:
    """Worker count for forked sweep fan-out: the granted cores, capped.

    Results are index-merged and deterministic for any value, so this
    only changes wall time, never artifacts.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(cap, cores))


def run_simulated(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark.

    The simulations are deterministic and their *simulated* results are
    the artifact; wall-clock timing is recorded once for bookkeeping
    rather than statistics.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def archive_json(name: str, payload: Dict[str, Any]) -> pathlib.Path:
    """Write ``payload`` as ``benchmarks/results/<name>.json``.

    Machine-readable companion to the rendered ``*.txt`` artifacts the
    ``archive`` fixture produces; downstream tooling (CI trend tracking,
    the engine benchmark) reads these instead of scraping tables.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def throughput_row(sim: Any, wall: float) -> Dict[str, Any]:
    """One timed full-stack run as a result row.

    ``sim_s_per_wall_s`` is the leaf to compare such rows on:
    ``events_per_s`` *falls* when an optimisation skips events the model
    never needed while the run itself gets faster.
    """
    events = getattr(sim, "events_fired", 0)
    return {
        "events": events,
        "wall_s": round(wall, 6),
        "events_per_s": round(events / wall) if wall > 0 else 0.0,
        "sim_s_per_wall_s": round(sim.now / wall, 1) if wall > 0 else 0.0,
    }
