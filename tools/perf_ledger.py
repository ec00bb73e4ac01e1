#!/usr/bin/env python
"""Longitudinal perf ledger: benchmark trajectory + regression gate.

Runs the repo's self-timing benchmarks (``benchmarks/bench_engine.py``,
``benchmarks/bench_faults.py``) as subprocesses with ``--json``, stamps
the results with commit/cpu metadata, and appends one entry to
``BENCH_history.json`` at the repo root — turning isolated bench runs
into a tracked curve that ``repro report`` and CI can read.

The regression gate compares every throughput metric (a row's
``sim_s_per_wall_s`` where it records one — the full-stack rows, whose
``events_per_s`` falls when events are optimised away — and its
``events_per_s`` otherwise) in the new entry against the best previous
recording *in the same mode* (smoke results are never compared against
full runs): the gate fails when ``current < best / slowdown``.  The
default slowdown of 2.0 is deliberately loose — shared CI machines
jitter — it exists to catch accidental algorithmic regressions (an O(n)
scan sneaking into the dispatch loop), not 10% noise.

Usage::

    python -m repro perf --smoke          # CI: bench, append, gate
    python tools/perf_ledger.py --smoke   # same, direct

Wall-clock and host metadata are fine here: this file lives in
``tools/`` (outside the ``src/repro`` determinism lint root) and the
ledger is offline metadata, never visible to a simulation.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.json"
DEFAULT_SLOWDOWN = 2.0

#: Benchmarks the ledger tracks: name -> (script, extra args).  Each
#: supports ``--smoke --json PATH`` and emits ``{"mode", "results"}``.
#: The extra args disarm each benchmark's *internal* pass/fail ceilings:
#: the ledger records and gates longitudinally itself; CI runs the
#: strict single-shot gates in their own steps.
BENCHMARKS = {
    "bench_engine": ("benchmarks/bench_engine.py", ["--min-eps", "0"]),
    "bench_faults": (
        "benchmarks/bench_faults.py",
        ["--max-overhead", "10", "--max-journal-overhead", "10"],
    ),
    "bench_checkpoint": (
        "benchmarks/bench_checkpoint.py",
        ["--max-idle-overhead", "10"],
    ),
}


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(REPO_ROOT), capture_output=True, text=True, timeout=30,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_benchmark(script: str, smoke: bool,
                  extra: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run one benchmark subprocess and return its JSON payload."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out_path = pathlib.Path(handle.name)
    try:
        command = [sys.executable, str(REPO_ROOT / script),
                   "--json", str(out_path)] + list(extra or ())
        if smoke:
            command.append("--smoke")
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (
            src + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        )
        proc = subprocess.run(
            command, cwd=str(REPO_ROOT), env=env,
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{script} exited {proc.returncode}:\n{proc.stdout}"
                f"\n{proc.stderr}"
            )
        return json.loads(out_path.read_text())
    finally:
        out_path.unlink(missing_ok=True)


def build_entry(smoke: bool, benchmarks: Optional[Dict[str, Any]] = None
                ) -> Dict[str, Any]:
    """One ledger entry; runs the benchmarks unless payloads are given."""
    if benchmarks is None:
        benchmarks = {
            name: run_benchmark(script, smoke, extra)
            for name, (script, extra) in sorted(BENCHMARKS.items())
        }
    return {
        "stamp": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "commit": git_commit(),
        "mode": "smoke" if smoke else "full",
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor() or platform.machine(),
            "python": platform.python_version(),
        },
        "benchmarks": benchmarks,
    }


# ----------------------------------------------------------------------
# History file
# ----------------------------------------------------------------------
def load_history(path: pathlib.Path) -> List[Dict[str, Any]]:
    if not path.is_file():
        return []
    data = json.loads(path.read_text())
    if not isinstance(data, list):
        raise ValueError(f"{path} is not a JSON list of ledger entries")
    return data


def append_entry(path: pathlib.Path, entry: Dict[str, Any]
                 ) -> List[Dict[str, Any]]:
    history = load_history(path)
    history.append(entry)
    path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    return history


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
#: Higher-is-better leaves the gate reads, in order of preference: a row
#: that records the first is gated on it and not on the second.
THROUGHPUT_LEAVES = ("sim_s_per_wall_s", "events_per_s")


def throughput_metrics(entry: Dict[str, Any]) -> Dict[str, float]:
    """Flatten each row's throughput leaf to a dotted path, e.g.
    ``bench_engine.results.task_resume.events_per_s`` or
    ``bench_engine.results.e10_slice.sim_s_per_wall_s``."""
    metrics: Dict[str, float] = {}

    def walk(prefix: str, node: Any) -> None:
        if isinstance(node, dict):
            for leaf in THROUGHPUT_LEAVES:
                if isinstance(node.get(leaf), (int, float)):
                    metrics[f"{prefix}.{leaf}" if prefix else leaf] = float(
                        node[leaf]
                    )
                    break
            for key, value in node.items():
                if key not in THROUGHPUT_LEAVES:
                    walk(f"{prefix}.{key}" if prefix else key, value)

    walk("", entry.get("benchmarks", {}))
    return metrics


def check_regression(
    history: List[Dict[str, Any]],
    entry: Dict[str, Any],
    slowdown: float = DEFAULT_SLOWDOWN,
) -> List[str]:
    """Failure messages for every metric that regressed past the gate.

    ``history`` is the list of *previous* entries (the new entry must
    not be in it); only same-mode entries are compared.
    """
    if slowdown <= 1.0:
        raise ValueError("slowdown must be > 1.0")
    mode = entry.get("mode")
    best: Dict[str, float] = {}
    for previous in history:
        if previous.get("mode") != mode:
            continue
        for path, value in throughput_metrics(previous).items():
            if value > best.get(path, 0.0):
                best[path] = value
    failures = []
    for path, value in sorted(throughput_metrics(entry).items()):
        reference = best.get(path)
        if reference is None:
            continue
        floor = reference / slowdown
        if value < floor:
            failures.append(
                f"{path}: {value:.0f} is below the regression floor "
                f"{floor:.0f} (best {mode} recording {reference:.0f} "
                f"/ slowdown {slowdown})"
            )
    return failures


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads; recorded under mode=smoke")
    parser.add_argument("--history", default=None,
                        help=f"ledger path (default {DEFAULT_HISTORY})")
    parser.add_argument("--slowdown", type=float, default=DEFAULT_SLOWDOWN,
                        help="gate: fail when a metric drops below "
                             "best-known/slowdown (default %(default)s)")
    parser.add_argument("--no-gate", action="store_true",
                        help="append the entry but skip the gate")
    args = parser.parse_args(argv)

    history_path = pathlib.Path(args.history) if args.history else DEFAULT_HISTORY
    previous = load_history(history_path)
    entry = build_entry(smoke=args.smoke)
    metrics = throughput_metrics(entry)
    print(f"perf ledger: {len(metrics)} throughput metric(s) at "
          f"commit {entry['commit'][:12]} (mode={entry['mode']})")
    for path, value in sorted(metrics.items()):
        print(f"  {path:<52} {value:>12,.0f}")

    failures: List[str] = []
    if not args.no_gate:
        failures = check_regression(previous, entry, slowdown=args.slowdown)
    append_entry(history_path, entry)
    print(f"appended entry {len(previous) + 1} to {history_path}")
    if failures:
        print("\nREGRESSION GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
