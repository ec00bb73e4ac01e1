"""The repo's benchmark: eight workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the sources measured are ``./src``)::

    python3 benchmarks/perf/run.py                      # everything, ~4 min
    python3 benchmarks/perf/run.py --workload usage_day --seed 3 --trace 0
    python3 benchmarks/perf/run.py --smoke              # inner loop, < 25 s
    python3 benchmarks/perf/run.py --selfcheck

Every repetition is a fresh ``repetition.py`` subprocess running alone, so
set-up time and peak memory are per repetition and samples are
independent.  ``--trace 0`` runs untraced repetitions for ``--seconds``
(never fewer than three) and reports the end-to-end metrics; ``--trace 1``
runs one untraced and one traced repetition and reports the per-layer
metrics; the default does both.  After each workload's table comes one
line of JSON with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; for a single workload it is the last line of the output.

This is a deterministic simulator, so every metric names its clock:
``host`` is what the simulator costs us and carries run-to-run noise,
``sim`` is a count or a simulated time and repeats exactly for a fixed
seed.  The two end-to-end timings are in seconds of the undisturbed
reference box: each repetition samples the host's speed all through and
the timing is scaled by it (``hostspeed.py``).  See ``README.md`` beside
this file for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import REFERENCE_S

HERE = pathlib.Path(__file__).resolve().parent
CONTRACT = "BENCHMARK.json"
COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]
RUN_SECONDS = 14
MIN_REPETITIONS = 3
#: Share of the traced wall that named layers must account for.
MIN_COVERAGE = 0.98

LAYERS = ("sim", "net", "fs", "kernel", "migration", "loadsharing",
          "workloads", "faults", "snapshot", "checkpoint", "analysis")

#: name -> the one-line reason the workload exists.
WORKLOADS = {
    "engine_micro": "bare repro.sim (callbacks, task resumes, channel ping-pong): "
                    "sim does all the work, so any change above the engine must not move it",
    "usage_day": "E10 usage window on the full stack: timers, load sampling, migd polling "
                 "and short jobs, few migrations; fabric, detector and tracing off",
    "migration_ring": "576 migrations round a 6-host ring under all four VM policies: "
                      "migration, bulk net transfer and fs stream hand-off do the work",
    "syscall_mix": "25600 small kernel calls, half forwarded home after one migration: "
                   "tiny RPCs, cache hits and writes, kernel dispatch; migration is idle",
    "pmake_build": "E5 parallel make at 1, 4 and 12 jobs: exec-time migration through "
                   "loadsharing host selection plus fs name lookups; little VM transfer",
    "crash_matrix": "24 crash-matrix cells, one copy-on-write fork each: fork and set-up cost "
                    "and recovery paths, not steady-state dispatch, set the time",
    "chaos_hybrid": "adversarial chaos with hybrid checkpointing on 3 seeds: the only workload "
                    "with link fabric, dedup, detector, backpressure and checkpoint all live",
    "lint_cold": "cold whole-program lint of src/repro, no cache: analysis does all the work "
                 "and sim none; ops are source lines because PRs change the corpus",
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
#: Each is the median over a run's untraced repetitions; the two timings
#: are scaled by the host's speed while they were taken (``steady``).
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: Metrics that would be end-to-end but exist on one workload only; the
#: contract wants every end-to-end metric on every workload and never 0,
#: so they are reported with the per-layer metrics (0 elsewhere).
SIM_END_TO_END = [
    ("sim_migration_ms", "ms", "lower", "sim"),
    ("sim_freeze_ms", "ms", "lower", "sim"),
    ("sim_call_ms", "ms", "lower", "sim"),
    ("sim_speedup", "ratio", "higher", "sim"),
]

#: (name, unit, better, clock) of every per-layer metric.
PER_LAYER = (
    [(f"{layer}.{metric}", unit, "lower", clock)
     for layer in LAYERS
     for metric, unit, clock in (("self_s", "s", "host"),
                                 ("share", "ratio", "host"),
                                 ("calls", "count", "sim"))]
    + [
        ("sim.events", "count", "lower", "sim"),
        ("sim.events_per_s", "1/s", "higher", "host"),
        ("sim.sim_s_per_wall_s", "ratio", "higher", "host"),
        ("sim.heap_compactions", "count", "lower", "sim"),
        ("net.rpc_calls", "count", "lower", "sim"),
        ("net.messages", "count", "lower", "sim"),
        ("net.bytes", "B", "lower", "sim"),
        ("net.dup_suppressed", "count", "lower", "sim"),
        ("net.us_per_rpc", "us", "lower", "host"),
        ("net.sim_wait_s", "s", "lower", "sim"),
        ("fs.lookups", "count", "lower", "sim"),
        ("fs.opens", "count", "lower", "sim"),
        ("fs.bytes_read", "B", "lower", "sim"),
        ("fs.bytes_written", "B", "lower", "sim"),
        ("fs.cache_hit_ratio", "ratio", "higher", "sim"),
        ("fs.consistency_callbacks", "count", "lower", "sim"),
        ("fs.sim_wait_s", "s", "lower", "sim"),
        ("kernel.syscalls", "count", "lower", "sim"),
        ("kernel.forwarded_home", "count", "lower", "sim"),
        ("kernel.forward_ratio", "ratio", "lower", "sim"),
        ("kernel.us_per_syscall", "us", "lower", "host"),
        ("migration.completed", "count", "higher", "sim"),
        ("migration.refused", "count", "lower", "sim"),
        ("migration.us_per_migration", "us", "lower", "host"),
        ("migration.events_per_migration", "count", "lower", "sim"),
        ("migration.sim_wait_s", "s", "lower", "sim"),
        ("loadsharing.requests", "count", "lower", "sim"),
        ("loadsharing.refused_busy", "count", "lower", "sim"),
        ("loadsharing.sim_wait_s", "s", "lower", "sim"),
        ("faults.cells", "count", "higher", "sim"),
        ("faults.injected", "count", "higher", "sim"),
        ("faults.violations", "count", "lower", "sim"),
        ("faults.us_per_cell", "us", "lower", "host"),
        ("snapshot.forks", "count", "lower", "sim"),
        ("snapshot.fork_ms", "ms", "lower", "host"),
        ("snapshot.workers2_speedup", "ratio", "higher", "host"),
        ("checkpoint.images", "count", "lower", "sim"),
        ("checkpoint.restores", "count", "lower", "sim"),
        ("checkpoint.torn", "count", "lower", "sim"),
        ("analysis.files", "count", "lower", "sim"),
        ("analysis.lines", "count", "lower", "sim"),
        ("analysis.load_s", "s", "lower", "host"),
        ("analysis.callgraph_s", "s", "lower", "host"),
        ("analysis.rules_s", "s", "lower", "host"),
        ("analysis.slowest_rule_s", "s", "lower", "host"),
        ("obs.bench_trace_ratio", "ratio", "lower", "host"),
        ("obs.full_trace_ratio", "ratio", "lower", "host"),
        ("obs.spans_recorded", "count", "lower", "sim"),
    ]
    + SIM_END_TO_END
)

#: ``UserContext`` entry points that are not kernel calls.
NOT_SYSCALLS = frozenset({"start", "compute", "sleep", "use_memory",
                          "dirty_memory", "catch_signal", "signals_seen"})


def contract() -> Dict[str, Any]:
    """What ``BENCHMARK.json`` must hold, from the tables above."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _clock in PER_LAYER],
    }


# ----------------------------------------------------------------------
# Running repetitions
# ----------------------------------------------------------------------
def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def child_env(src: pathlib.Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def repetition(src: pathlib.Path, workload: str, seed: int, scale: float,
               traced: bool = False, variant: str = "",
               spans: Optional[str] = None) -> Dict[str, Any]:
    """One fresh subprocess running one repetition; its JSON result."""
    command = [sys.executable, str(HERE / "repetition.py"),
               "--workload", workload, "--seed", str(seed), "--scale", str(scale)]
    if traced:
        command.append("--traced")
    if variant:
        command += ["--variant", variant]
    if spans:
        command += ["--spans", spans]
    command += ["--stamp", repr(time.monotonic())]
    done = subprocess.run(command, env=child_env(src), capture_output=True,
                          text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} repetition exited {done.returncode}:\n"
                           f"{done.stdout}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(src: pathlib.Path, workload: str, seed: int, seconds: float,
            trace: str, scale: float, spans: Optional[str]) -> Dict[str, Any]:
    """Run ``workload`` as the protocol says; everything measured."""
    smoke = scale < 1
    plain: List[Dict[str, Any]] = []
    began = time.monotonic()
    if trace in ("0", "both"):
        floor = 1 if smoke else MIN_REPETITIONS
        while True:
            plain.append(repetition(src, workload, seed, scale))
            spent = time.monotonic() - began
            if len(plain) >= floor and (
                    smoke or spent + spent / len(plain) > seconds):
                break
    record: Dict[str, Any] = {"workload": workload, "seed": seed, "plain": plain}
    if trace in ("1", "both") and not smoke:
        if not plain:
            plain.append(repetition(src, workload, seed, scale))
        record["traced"] = repetition(src, workload, seed, scale, traced=True,
                                      spans=spans)
        if workload == "crash_matrix" and nproc() >= 2:
            record["workers2"] = repetition(src, workload, seed, scale,
                                            variant="workers2")
        if workload == "usage_day":
            record["fulltrace"] = repetition(src, workload, seed, scale,
                                             variant="fulltrace")
    return record


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def ratio(numerator: Optional[float], denominator: Optional[float],
          scale: float = 1.0) -> Optional[float]:
    if numerator is None or denominator is None:
        return None
    return numerator / denominator * scale if denominator else 0.0


def steady(rep: Dict[str, Any], region: str) -> float:
    """The repetition's ``setup`` or ``run`` region in seconds of the
    undisturbed reference box: the time measured, less the speed samples
    taken inside it, scaled by ``REFERENCE_S`` over their mean."""
    measured = rep["setup_s" if region == "setup" else "wall_s"]
    samples = rep["reference"][region]
    if len(samples) < 3:  # a region of a few ms (smoke): the whole repetition's
        samples = rep["reference"]["setup"] + rep["reference"]["run"]
        if not samples:
            return measured
        return measured * REFERENCE_S / statistics.fmean(samples)
    return (measured - sum(samples)) * REFERENCE_S / statistics.fmean(samples)


def end_to_end(record: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Each end-to-end metric over the untraced repetitions (median, n,
    min, max); the two timings as the host's clock read them; and the mean
    speed sample of the timed region (``REFERENCE_S`` when undisturbed)."""
    plain = record["plain"]
    samples = {
        "ops_per_s": [rep["ops"] / steady(rep, "run") for rep in plain],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in plain],
        "setup_s": [steady(rep, "setup") for rep in plain],
        "wall_s": [rep["wall_s"] for rep in plain],
        "raw_setup_s": [rep["setup_s"] for rep in plain],
        "host_sample_ms": [statistics.fmean(rep["reference"]["run"]) * 1e3
                           for rep in plain if rep["reference"]["run"]] or [0.0],
    }
    return {name: {"value": statistics.median(values), "n": len(values),
                   "min": min(values), "max": max(values)}
            for name, values in samples.items()}


def clock_wall(rep: Dict[str, Any]) -> float:
    """The timed region as the clock read it, less the speed samples in it."""
    return rep["wall_s"] - sum(rep["reference"]["run"])


def per_layer(record: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Every per-layer metric: counts from the untraced repetition, times
    from the traced one.  ``None`` marks a counter the program no longer
    has; a layer the workload does not touch reads 0."""
    plain = min(record["plain"], key=lambda rep: rep["wall_s"])
    traced = record["traced"]
    counters = dict(plain["counters"])
    trace = traced["trace"]
    layers, names = trace["layers"], trace["names"]
    wall, traced_wall = clock_wall(plain), traced["wall_s"]

    def count(key: str) -> Optional[float]:
        return counters.get(key, 0)

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    out: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        agg = layers.get(layer, {})
        out[f"{layer}.self_s"] = agg.get("self_s", 0.0)
        out[f"{layer}.share"] = agg.get("self_s", 0.0) / traced_wall
        out[f"{layer}.calls"] = agg.get("calls", 0)
    for layer in ("net", "fs", "migration", "loadsharing"):
        # MigClient spans last as long as the jobs they launch; the wait
        # for a host is the selector's.
        out[f"{layer}.sim_wait_s"] = sum(
            row[3] for name, row in names.items()
            if name.startswith(layer + ":") and ":MigClient." not in name)

    # Forked children keep their clusters; the tracer counted their events.
    events = counters["sim.events"] if "sim.events" in counters else trace["events"]
    out["sim.events"] = events
    out["sim.events_per_s"] = ratio(events, wall)
    out["sim.sim_s_per_wall_s"] = ratio(count("sim.sim_s"), wall)
    calls = [row for name, row in names.items()
             if name.startswith("kernel:UserContext.")
             and name.rsplit(".", 1)[1] not in NOT_SYSCALLS]
    syscalls = sum(row[0] for row in calls)
    out["kernel.syscalls"] = syscalls
    out["kernel.forward_ratio"] = ratio(count("kernel.forwarded_home"), syscalls)
    out["kernel.us_per_syscall"] = ratio(
        sum(row[1] for name, row in names.items()
            if name.startswith("kernel:SpriteKernel."))
        + sum(row[1] for row in calls), syscalls, 1e6)
    out["net.us_per_rpc"] = ratio(self_s("net"), count("net.rpc_calls"), 1e6)
    hits, misses = count("fs.cache_hits"), count("fs.cache_misses")
    out["fs.cache_hit_ratio"] = ratio(
        hits, None if None in (hits, misses) else hits + misses)
    completed = count("migration.completed")
    out["migration.us_per_migration"] = ratio(self_s("migration"), completed, 1e6)
    out["migration.events_per_migration"] = ratio(events, completed)
    out["faults.us_per_cell"] = ratio(self_s("faults"), count("faults.cells"), 1e6)
    children = trace["forked_children"]
    out["snapshot.forks"] = children + names.get("snapshot:Snapshot.fork", [0])[0]
    out["snapshot.fork_ms"] = ratio(
        names.get("snapshot:forked_map", [0, 0.0])[1], children, 1e3)
    out["snapshot.workers2_speedup"] = (
        ratio(wall, clock_wall(record["workers2"])) if "workers2" in record else 0.0)
    rules = [row[1] for name, row in names.items()
             if name.startswith("analysis:") and name.endswith(".check")]
    out["analysis.load_s"] = names.get("analysis:Tree.load", [0, 0, 0.0])[2]
    out["analysis.callgraph_s"] = names.get("analysis:Tree.callgraph", [0, 0, 0.0])[2]
    out["analysis.rules_s"] = sum(rules)
    out["analysis.slowest_rule_s"] = max(rules, default=0.0)
    out["obs.bench_trace_ratio"] = traced_wall / wall
    out["obs.full_trace_ratio"] = (
        clock_wall(record["fulltrace"]) / wall if "fulltrace" in record else 0.0)
    out["obs.spans_recorded"] = trace["spans"]
    for name, _unit, _better, _clock in SIM_END_TO_END:
        out[name] = plain["sim_metrics"].get(name, 0.0)
    for name, _unit, _better, _clock in PER_LAYER:
        if name not in out:
            out[name] = count(name)
    return out


def verdict(record: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    """Ops attempted and failed over all repetitions, and why."""
    repetitions = list(record["plain"])
    repetitions += [record[key] for key in ("traced", "workers2") if key in record]
    attempted = sum(rep["ops"] for rep in repetitions)
    failed = sum(rep["failed"] for rep in repetitions)
    reasons = [why for rep in repetitions for why in rep["failures"]]
    if len({rep["sim_digest"] for rep in repetitions}) > 1:
        failed = attempted
        reasons.append("repetitions disagree on sim_digest: "
                       + ", ".join(rep["sim_digest"][:12] for rep in repetitions))
    return attempted, failed, reasons


def coverage(record: Dict[str, Any]) -> float:
    trace = record["traced"]["trace"]
    return (sum(agg["self_s"] for agg in trace["layers"].values())
            / record["traced"]["wall_s"])


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value):,d}"
    return f"{value:,.4g}" if abs(value) < 1 else f"{value:,.3f}"


def report(record: Dict[str, Any], trace: str, label: str) -> Dict[str, Any]:
    """Print the workload's metrics; return its contract result."""
    workload = record["workload"]
    attempted, failed, reasons = verdict(record)
    print(f"\n== {workload}{label} (seed {record['seed']}) — {WORKLOADS[workload]}")
    digest = record["plain"][0]["sim_digest"]
    print(f"   attempted {attempted:,d} ops, failed {failed:,d} "
          f"(fail_ratio {failed / attempted:.4g}); sim_digest {digest}")
    for why in reasons[:10]:
        print(f"   FAILED CHECK: {why}")
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace in ("0", "both"):
        stats = end_to_end(record)
        for name, unit, better, bound in (
                END_TO_END + [("wall_s", "s", "lower", None),
                              ("raw_setup_s", "s", "lower", None),
                              ("host_sample_ms", "ms", "lower", None)]):
            stat = stats[name]
            print(f"   {name:<34}{fmt(stat['value']):>14} {unit:<6} host  "
                  f"{better:<7} n={stat['n']} "
                  f"min={stat['min']:.4g} max={stat['max']:.4g}"
                  + (f" bound={bound:.0%}" if bound else " as the clock read it"))
            if bound:
                metrics[name] = {"value": stat["value"], "unit": unit}
    if "traced" in record:
        values = per_layer(record)
        trace_info = record["traced"]["trace"]
        covered = coverage(record)
        print(f"   traced wall {record['traced']['wall_s']:.4g} s, "
              f"{covered:.1%} of it in named layers"
              f"{'' if covered >= MIN_COVERAGE else '  ** below 98% **'}; "
              f"trace.missing_entry_points {trace_info['missing']}")
        for name, unit, better, clock in PER_LAYER:
            value = values[name]
            print(f"   {name:<34}{fmt(value):>14} {unit:<6} {clock:<5} "
                  f"{better:<7} n=1")
            if trace in ("1", "both"):
                metrics[name] = {"value": 0 if value is None else value,
                                 "unit": unit}
        missing = sorted(name for name, value in values.items() if value is None)
        if missing:
            print(f"   counters the program no longer has: {missing}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return result


def host_metadata(root: pathlib.Path) -> Dict[str, Any]:
    load = os.getloadavg()[0]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                capture_output=True, timeout=30).stdout.strip()
    except OSError:
        commit = ""
    return {"nproc": nproc(), "python": platform.python_version(),
            "commit": commit or "unknown", "load_1min": load,
            "noisy": load > nproc() - 1}


# ----------------------------------------------------------------------
# Self-check
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def selfcheck(root: pathlib.Path, results: Optional[pathlib.Path]) -> List[str]:
    """Problems with the metric tables, ``BENCHMARK.json`` and, if given,
    a results file written by ``--json``."""
    problems: List[str] = []
    names = ([n for n in WORKLOADS] + [n for n, *_ in END_TO_END]
             + [n for n, *_ in PER_LAYER])
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    problems += [f"name used twice: {n}" for n in set(names) if names.count(n) > 1]
    if not 2 <= len(WORKLOADS) <= 8:
        problems.append(f"{len(WORKLOADS)} workloads")
    if not 1 <= len(END_TO_END) <= 16:
        problems.append(f"{len(END_TO_END)} end-to-end metrics")
    if not 1 <= len(PER_LAYER) <= 128:
        problems.append(f"{len(PER_LAYER)} per-layer metrics")
    for name, why in WORKLOADS.items():
        if not why or "\n" in why or len(why) > 200:
            problems.append(f"workload {name}: reason must be one line of <= 200")
    for name, unit, better, bound in END_TO_END:
        if not UNIT.match(unit) or better not in ("higher", "lower"):
            problems.append(f"{name}: unit {unit!r} / direction {better!r}")
        if not 0 < bound <= 0.25:
            problems.append(f"{name}: bound {bound}")
    if ("setup_s", "s", "lower") not in [m[:3] for m in END_TO_END]:
        problems.append("no setup_s metric in s, lower is better")
    for name, unit, better, clock in PER_LAYER:
        if (not UNIT.match(unit) or better not in ("higher", "lower")
                or clock not in ("host", "sim")):
            problems.append(f"{name}: unit {unit!r} / {better!r} / clock {clock!r}")
    path = root / CONTRACT
    if not path.is_file():
        problems.append(f"{path} does not exist")
    elif json.loads(path.read_text()) != contract():
        problems.append(f"{CONTRACT} differs from run.py's tables; it should be:\n"
                        + json.dumps(contract(), indent=2))
    elif path.stat().st_size > 64 * 1024:
        problems.append(f"{CONTRACT} is larger than 64 KiB")
    if results is not None:
        stored = json.loads(results.read_text())
        if stored.get("mode") != "full" or stored["host"].get("noisy"):
            problems.append(f"{results} is not from a full, quiet run")
        for name, entry in stored["workloads"].items():
            if entry["failed"]:
                problems.append(f"{name}: {entry['failed']} ops failed")
            if len(set(entry["sim_digests"])) != 1:
                problems.append(f"{name}: repetitions disagree on sim_digest")
            if entry["coverage"] < MIN_COVERAGE:
                problems.append(f"{name}: layers cover {entry['coverage']:.1%} "
                                "of the traced wall")
            if entry["missing_entry_points"]:
                problems.append(f"{name}: missing entry points "
                                f"{entry['missing_entry_points']}")
            absent = [n for n, *_ in PER_LAYER if n not in entry["per_layer"]]
            absent += [n for n, *_ in END_TO_END if n not in entry["end_to_end"]]
            if absent:
                problems.append(f"{name}: metrics absent {absent}")
    return problems


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="run one workload (default: all eight)")
    parser.add_argument("--seed", type=int, default=0,
                        help="every generated input derives from it")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the untraced repetitions of one "
                             "workload measure (never fewer than three)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0: end-to-end metrics from untraced repetitions; "
                             "1: per-layer metrics from a traced repetition")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about a tenth of its size, one "
                             "untraced repetition; never for claims")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="also write the full results here (refused for "
                             "a smoke run or on a noisy host)")
    parser.add_argument("--spans", default=None,
                        help="write the traced repetition's spans here as JSON "
                             "lines (single workload only)")
    parser.add_argument("--selfcheck", nargs="?", const="", default=None,
                        metavar="RESULTS",
                        help="validate the metric tables and BENCHMARK.json, "
                             "and a --json results file if given")
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if args.selfcheck is not None:
        problems = selfcheck(root, pathlib.Path(args.selfcheck)
                             if args.selfcheck else None)
        for problem in problems:
            print(f"selfcheck: {problem}")
        print(f"selfcheck: {'FAILED' if problems else 'ok'} "
              f"({len(WORKLOADS)} workloads, {len(END_TO_END)} end-to-end, "
              f"{len(PER_LAYER)} per-layer metrics)")
        return 1 if problems else 0

    src = root / "src"
    if not (src / "repro").is_dir():
        print(f"run.py: no src/repro under {root}; run it from the root of a "
              "checkout", file=sys.stderr)
        return 2
    if args.spans and not args.workload:
        parser.error("--spans needs --workload")
    if args.json is not None and args.trace != "both":
        parser.error("--json needs both the untraced and the traced repetitions")
    if args.smoke:
        args.trace = "0"
    host = host_metadata(root)
    mode = "smoke" if args.smoke else "full"
    if args.json is not None and (args.smoke or host["noisy"]):
        print(f"run.py: refusing to write {args.json} from a "
              f"{'smoke run' if args.smoke else 'noisy host'}", file=sys.stderr)
        return 2
    label = " [smoke: not for claims]" if args.smoke else ""
    print(f"benchmark {mode}{label}: nproc {host['nproc']}, python "
          f"{host['python']}, commit {host['commit'][:12]}, load "
          f"{host['load_1min']:.2f}{' (NOISY)' if host['noisy'] else ''}")

    scale = 0.1 if args.smoke else 1.0
    stored: Dict[str, Any] = {}
    failed_any = False
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        record = measure(src, workload, args.seed, args.seconds, args.trace,
                         scale, args.spans)
        result = report(record, args.trace, label)
        failed_any = failed_any or not result["correct"]
        if args.json is not None:
            repetitions = record["plain"] + [record["traced"]]
            stored[workload] = {
                "why": WORKLOADS[workload],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "end_to_end": end_to_end(record),
                "per_layer": per_layer(record),
                "sim_digests": [rep["sim_digest"] for rep in repetitions],
                "coverage": coverage(record),
                "missing_entry_points": record["traced"]["trace"]["missing"],
                "layer_names": record["traced"]["trace"]["names"],
            }
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"mode": mode, "seed": args.seed, "host": host,
             "command": COMMAND, "workloads": stored}, indent=1) + "\n")
        print(f"\n[wrote {args.json}]")
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
