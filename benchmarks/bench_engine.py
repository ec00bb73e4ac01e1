"""P1 — Discrete-event engine throughput microbenchmarks.

Every experiment funnels through ``repro.sim``'s event loop, so its
dispatch cost multiplies all simulated wall-time.  This benchmark pins
that cost down on five workloads:

* ``raw_callback``   — bare callbacks rescheduling themselves (a mix of
  zero-delay and timed hops: ready-queue and heap paths).
* ``task_resume``    — coroutine tasks resuming through ``Sleep(0)``,
  the dominant pattern in the kernel/RPC stack.
* ``channel_pingpong`` — task pairs exchanging tokens over bounded
  channels (the RPC/inbox pattern).
* ``e10_slice``      — a compressed slice of the E10 production-usage
  window: the full cluster stack (activity traces, migd, eviction,
  batches) on a live LAN.
* ``contended_slice`` — four compute-bound processes sharing one host's
  core: the round-robin rotation the core replays instead of
  dispatching.

Run standalone (``python benchmarks/bench_engine.py [--smoke]``) or via
``python -m repro experiment P1``.  Results are archived as rendered
text plus machine-readable JSON so the events/sec trajectory is tracked
from PR to PR; ``--smoke`` doubles as a CI throughput floor check.
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

from repro.sim import Channel, Simulator, Sleep, spawn

try:
    from common import archive_json, run_simulated
except ImportError:  # imported as benchmarks.bench_engine
    from .common import archive_json, run_simulated  # type: ignore

#: Workload sizes: full mode for trend numbers, smoke mode for CI.
SIZES = {
    "full": {
        "raw_callback": 400_000,
        "task_resume": 200_000,
        "channel_pingpong": 50_000,
        "e10_hosts": 6,
        "e10_duration": 2 * 3600.0,
        "contended_seconds": 600.0,
    },
    "smoke": {
        "raw_callback": 40_000,
        "task_resume": 20_000,
        "channel_pingpong": 5_000,
        "e10_hosts": 3,
        "e10_duration": 600.0,
        "contended_seconds": 60.0,
    },
}


#: Rows that run the whole stack rather than the bare engine.  Their
#: throughput is simulated seconds per wall second: events per second
#: *falls* when an optimisation skips events the model never needed
#: (lazy time-slicing), while the simulation itself gets faster.
FULL_STACK = frozenset({"e10_slice", "contended_slice"})


# ----------------------------------------------------------------------
# Event accounting that works on engines with and without a native
# ``events_fired`` counter (the counted run is separate from the timed
# run, so instrumentation never skews the wall-clock numbers).
# ----------------------------------------------------------------------
def _count_dispatches(build_and_run: Callable[[], Simulator]) -> int:
    sim = build_and_run()
    native = getattr(sim, "events_fired", None)
    if native is not None:
        return native
    counted = [0]
    original_step = Simulator.step

    def counting_step(self) -> bool:
        fired = original_step(self)
        if fired:
            counted[0] += 1
        return fired

    Simulator.step = counting_step  # type: ignore[method-assign]
    try:
        build_and_run()
    finally:
        Simulator.step = original_step  # type: ignore[method-assign]
    return counted[0]


def _measure(build_and_run: Callable[[], Simulator]) -> Tuple[float, float]:
    start = time.perf_counter()
    sim = build_and_run()
    wall = time.perf_counter() - start
    return wall, sim.now


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _run_raw_callback(n_events: int) -> Callable[[], Simulator]:
    def build_and_run() -> Simulator:
        sim = Simulator()
        chains = 4
        remaining = [n_events]

        def tick(chain: int, hop: int) -> None:
            remaining[0] -= 1
            if remaining[0] <= 0:
                return
            if hop % 3 == 2:
                sim.schedule(1e-4, tick, chain, hop + 1)
            else:
                sim.call_soon(tick, chain, hop + 1)

        for chain in range(chains):
            sim.call_soon(tick, chain, 0)
        sim.run()
        return sim

    return build_and_run


def _run_task_resume(n_resumes: int) -> Callable[[], Simulator]:
    def build_and_run() -> Simulator:
        sim = Simulator()
        tasks = 50
        per_task = n_resumes // tasks

        def worker():
            for _ in range(per_task):
                yield Sleep(0.0)

        for i in range(tasks):
            spawn(sim, worker(), name=f"w{i}")
        sim.run()
        return sim

    return build_and_run


def _run_channel_pingpong(n_rounds: int) -> Callable[[], Simulator]:
    def build_and_run() -> Simulator:
        sim = Simulator()
        pairs = 10
        per_pair = n_rounds // pairs

        def ping(request: Channel, reply: Channel):
            for i in range(per_pair):
                yield request.put(i)
                yield reply.get()

        def pong(request: Channel, reply: Channel):
            for _ in range(per_pair):
                token = yield request.get()
                yield reply.put(token)

        for p in range(pairs):
            request = Channel(sim, name=f"req{p}")
            reply = Channel(sim, name=f"rep{p}")
            spawn(sim, ping(request, reply), name=f"ping{p}")
            spawn(sim, pong(request, reply), name=f"pong{p}")
        sim.run()
        return sim

    return build_and_run


def _run_e10_slice(hosts: int, duration: float) -> Callable[[], Simulator]:
    def build_and_run() -> Simulator:
        from repro import SpriteCluster
        from repro.loadsharing import LoadSharingService
        from repro.workloads import ActivityModel, UsageSimulation

        cluster = SpriteCluster(workstations=hosts, start_daemons=True, seed=3)
        service = LoadSharingService(cluster, architecture="centralized")
        cluster.standard_images()
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


def _run_contended_slice(seconds: float) -> Callable[[], Simulator]:
    def build_and_run() -> Simulator:
        from repro import SpriteCluster

        cluster = SpriteCluster(workstations=1, start_daemons=False)

        def job(proc):
            yield from proc.compute(seconds)
            return 0

        for index in range(4):
            cluster.hosts[0].spawn_process(job, name=f"job{index}")
        cluster.sim.run_until_idle()
        return cluster.sim

    return build_and_run


def _workloads(sizes: Dict[str, Any]) -> Dict[str, Callable[[], Simulator]]:
    return {
        "raw_callback": _run_raw_callback(sizes["raw_callback"]),
        "task_resume": _run_task_resume(sizes["task_resume"]),
        "channel_pingpong": _run_channel_pingpong(sizes["channel_pingpong"]),
        "e10_slice": _run_e10_slice(sizes["e10_hosts"], sizes["e10_duration"]),
        "contended_slice": _run_contended_slice(sizes["contended_seconds"]),
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_all(smoke: bool = False, repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Run every workload; report best-of-``repeats`` wall time."""
    sizes = SIZES["smoke" if smoke else "full"]
    results: Dict[str, Dict[str, float]] = {}
    for name, build_and_run in _workloads(sizes).items():
        walls = []
        sim_s = 0.0
        for _ in range(repeats):
            wall, sim_s = _measure(build_and_run)
            walls.append(wall)
        events = _count_dispatches(build_and_run)
        wall = min(walls)
        results[name] = {
            "events": events,
            "wall_s": round(wall, 6),
            "sim_s": round(sim_s, 6),
            "events_per_s": round(events / wall) if wall > 0 else 0.0,
        }
        if name in FULL_STACK:
            results[name]["sim_s_per_wall_s"] = (
                round(sim_s / wall, 1) if wall > 0 else 0.0
            )
    return results


def render(results: Dict[str, Dict[str, float]], mode: str) -> str:
    lines = [
        f"P1: engine throughput ({mode} sizes, best-of-N wall time)",
        f"{'workload':<20} {'events':>10} {'wall_s':>10} {'events/s':>12}",
    ]
    for name, row in results.items():
        line = (
            f"{name:<20} {row['events']:>10,.0f} {row['wall_s']:>10.3f} "
            f"{row['events_per_s']:>12,.0f}"
        )
        if "sim_s_per_wall_s" in row:
            line += f"   {row['sim_s_per_wall_s']:,.0f} sim s per wall s"
        lines.append(line)
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes + throughput floor check (CI mode)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repetitions (best-of)"
    )
    parser.add_argument(
        "--json", type=pathlib.Path, default=None,
        help="also write results to this path (default: results/P1_engine.json)",
    )
    parser.add_argument(
        "--min-eps", type=float, default=20_000.0,
        help="smoke mode fails if task_resume events/s drops below this",
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
        print(f"[wrote {archive_json('P1_engine', payload)}]")
    if args.smoke and results["task_resume"]["events_per_s"] < args.min_eps:
        print(
            f"FAIL: task_resume {results['task_resume']['events_per_s']:,.0f} "
            f"events/s below floor {args.min_eps:,.0f}",
            file=sys.stderr,
        )
        return 1
    return 0


def test_engine_throughput(benchmark, archive):
    """pytest-benchmark entry point (``python -m repro experiment P1``)."""
    results = run_simulated(benchmark, lambda: run_all(smoke=True, repeats=1))
    archive("P1_engine", render(results, "smoke"))
    archive_json("P1_engine", {"mode": "smoke", "results": results})
    for row in results.values():
        assert row["events"] > 0 and row["wall_s"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
