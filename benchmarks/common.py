"""Helpers importable by the benchmark modules."""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Callable, Dict, Tuple

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def results_dir() -> pathlib.Path:
    """Where the benches write their renderings and wall JSON:
    ``benchmarks/results/``, or ``$REPRO_RESULTS_DIR`` when it is set.
    ``repro trace`` sets it to the trace's output directory, so a traced
    run (spans on) never rewrites the committed archives."""
    return pathlib.Path(os.environ.get("REPRO_RESULTS_DIR") or RESULTS_DIR)


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
    """Write ``payload`` as ``<name>.json`` under :func:`results_dir`.

    Machine-readable companion to the rendered ``*.txt`` artifacts the
    ``archive`` fixture produces; downstream tooling (CI trend tracking,
    the engine benchmark) reads these instead of scraping tables.
    """
    directory = results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def publish_walls(name: str, mode: str, results: Dict[str, Any], walls: str) -> None:
    """Print a bench's wall-clock lines and write all its figures to
    ``results/<name>.json``.

    Walls, rates, wall ratios, page faults and core counts vary from run
    to run and host to host, so they go to stdout and to this gitignored
    JSON; the ``<name>.txt`` archive holds only deterministic lines.
    """
    print(walls)
    print(f"[wrote {archive_json(name, {'mode': mode, 'results': results})}]")


def interleaved_best(
    runs: Dict[str, Callable[[], Any]], rounds: int
) -> Dict[str, Tuple[float, Any]]:
    """Best wall and last result of each of ``runs``, timed in turn.

    One untimed warm-up of each run, then ``rounds`` rounds that run
    each configuration once, so every configuration sees the same slow
    spells of the host: a ratio of two of these walls measures the
    configurations rather than the order they ran in.
    """
    for run in runs.values():
        run()
    best = {name: float("inf") for name in runs}
    last: Dict[str, Any] = {}
    for _ in range(rounds):
        for name, run in runs.items():
            start = time.perf_counter()
            last[name] = run()
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: (best[name], last[name]) for name in runs}


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
