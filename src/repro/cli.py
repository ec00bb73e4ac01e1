"""Command-line interface: ``python -m repro <command>``.

Conveniences for exploring the reproduction from a checkout:

* ``python -m repro info`` — the 15 settable parameters, the calibration
  constants with units, the primitives they add up to, and the
  Appendix-A kernel-call histogram.
* ``python -m repro demo <name>`` — run one of the example scenarios.
* ``python -m repro experiment <id>`` — regenerate one paper artifact
  (delegates to the pytest benchmark for that experiment).
* ``python -m repro list`` — what's available.
"""

from __future__ import annotations

import argparse
import pathlib
import runpy
import subprocess
import sys
from dataclasses import fields
from typing import Dict, Optional, Tuple

__all__ = ["main"]

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

DEMOS: Dict[str, str] = {
    "quickstart": "quickstart.py",
    "pmake": "parallel_make.py",
    "eviction": "eviction_demo.py",
    "selection": "host_selection_tour.py",
    "faults": "fault_tolerance_demo.py",
    "sockets": "socket_migration.py",
    "checkpoint": "checkpoint_restart_demo.py",
}

EXPERIMENTS: Dict[str, str] = {
    "E1": "bench_migration_breakdown.py",
    "E2": "bench_vm_policies.py",
    "E3": "bench_forwarding.py",
    "A2": "bench_forwarding.py",
    "E4": "bench_exec_migration.py",
    "E5": "bench_pmake_speedup.py",
    "E6": "bench_simfarm.py",
    "E7": "bench_host_selection.py",
    "A1": "bench_host_selection.py",
    "E8": "bench_eviction.py",
    "E9": "bench_availability.py",
    "E10": "bench_usage_month.py",
    "E11": "bench_placement_vs_migration.py",
    "E12": "bench_distributed_selection.py",
    "A3": "bench_flood_prevention.py",
    "B1": "bench_condor_comparison.py",
    "S1": "bench_network_sweep.py",
    "S2": "bench_assignment_caching.py",
    "P1": "bench_engine.py",
    "P2": "bench_sweep.py",
    "P3": "bench_faults.py",
    "P8": "bench_checkpoint.py",
}


def _find_dir(name: str) -> Optional[pathlib.Path]:
    candidate = _REPO_ROOT / name
    if candidate.is_dir():
        return candidate
    cwd_candidate = pathlib.Path.cwd() / name
    if cwd_candidate.is_dir():
        return cwd_candidate
    return None


#: ``info``'s model table, one row per ``ClusterParams`` name: the unit
#: it prints in, and who varies it (a field) or the operating point of
#: the thesis's machine room it stands for (a constant).
_KNOBS: Tuple[Tuple[str, str, str], ...] = (
    ("net_latency", "ms", "test_net, test_substrate_edges"),
    ("net_bandwidth", "KB/s", "S1 bench_network_sweep; test_net, test_calibration"),
    ("net_shared_medium", "on/off", "test_net, test_hold_discipline (switched vs shared wire)"),
    ("rpc_cpu_overhead", "ms", "marshalling + dispatch per end; sets the ~2 ms null RPC"),
    ("rpc_timeout", "s", "test_failures, test_faults, fault_tolerance demo"),
    ("rpc_retries", "count", "test_failures, test_faults, fault_tolerance demo"),
    ("rpc_backoff_base", "s", "first retry delay, doubling per attempt"),
    ("rpc_backoff_cap", "s", "ceiling of the retry delay"),
    ("rpc_backoff_jitter", "ratio", "test_net, test_faults (0 = lockstep retries)"),
    ("rpc_dedup_cache", "entries", "exactly-once window per port, always on"),
    ("net_inbox_capacity", "packets", "test_net (0 = unbounded)"),
    ("cpu_quantum", "ms", "round-robin scheduler slice"),
    ("kernel_call_cpu", "ms", "a trivial local kernel call (getpid)"),
    ("fork_cpu", "ms", "fork bookkeeping, VM copy apart"),
    ("exec_cpu", "ms", "exec bookkeeping, image load apart"),
    ("load_sample_period", "s", "load-average sampling tick"),
    ("load_decay", "s", "load-average decay constant (1-minute average)"),
    ("page_size", "bytes", "Sun-3 Sprite virtual-memory page"),
    ("page_handling_cpu", "ms", "prepare or install one page in a transfer"),
    ("fs_block_size", "bytes", "test_cluster_api, test_substrate_edges"),
    ("fs_name_lookup_cpu", "ms", "server CPU per open/close/lookup beyond the RPC"),
    ("fs_block_cpu", "ms", "server CPU per block served"),
    ("client_block_cpu", "ms", "client CPU per block through its cache"),
    ("disk_bandwidth", "KB/s", "file-server disk throughput"),
    ("disk_latency", "ms", "file-server disk access, per operation"),
    ("server_cache_hit_rate", "ratio", "test_substrate_edges (0 and 1: disk always / never)"),
    ("client_cache_blocks", "blocks", "client block cache capacity (16 MB)"),
    ("writeback_period", "s", "Sprite's 30-second delayed write-back"),
    ("migration_state_cpu", "ms", "package or install the PCB, per end; checkpoints too"),
    ("migration_state_bytes", "bytes", "machine-independent process state shipped"),
    ("stream_transfer_bytes", "bytes", "state shipped per open stream"),
    ("stream_transfer_cpu", "ms", "CPU per open stream transferred"),
    ("migration_version", "", "test_cluster_api (mismatched kernels refuse, thesis 4.5)"),
    ("migration_ticket_ttl", "s", "lease on an uncommitted copy and on its reservation"),
    ("migration_rollback_retries", "count", "attempts per compensating action on abort"),
    ("migration_txn_journal", "on/off", "P3 bench_faults journal ablation"),
    ("checkpoint_interval", "s", "period unless CheckpointService(interval=) / run_chaos say"),
    ("checkpoint_digest_bytes", "bytes", "image trailer that exposes a torn write"),
    ("checkpoint_generations", "count", "intact images kept per process"),
    ("idle_load_threshold", "ratio", "a host is idle below this load average ..."),
    ("idle_input_threshold", "s", "... and with no user input for this long"),
    ("availability_period", "s", "hosts re-announce availability to migd"),
    ("eviction_grace", "s", "eviction daemon's poll after the owner returns"),
    ("migration_max_incoming", "count", "run_chaos(adversarial=), P3, test_faults (0 = no cap)"),
    ("migration_max_outgoing", "count", "run_chaos(adversarial=), P3, test_faults (0 = no cap)"),
    ("migd_max_pending", "count", "run_chaos(adversarial=), P3, test_faults (0 = no cap)"),
    ("heartbeat_period", "s", "failure detector's sampling period"),
    ("suspicion_threshold", "count", "missed heartbeats before a host is declared dead"),
    ("suspicion_flap_penalty", "count", "extra misses required per recent flap"),
    ("suspicion_max_threshold", "count", "cap on the damped threshold"),
    ("crash_detect_delay", "s", "recovery lag unless FaultInjector(detect_delay=) says"),
    ("exit_notify_retry", "s", "poll period for an unreachable home kernel"),
    ("seed", "", "every experiment, benchmark and test"),
)

_SCALE = {"ms": 1e3, "KB/s": 1 / 1024}


def cmd_info(_args: argparse.Namespace) -> int:
    from . import __version__
    from .config import ClusterParams
    from .kernel import APPENDIX_A, classes_of
    from .validation import measure_calibration

    print(f"repro {__version__} — Sprite process migration reproduction")
    params = ClusterParams()
    varies = {field.name for field in fields(params)}
    names = list(ClusterParams.__annotations__)
    rows = {name: (unit, note) for name, unit, note in _KNOBS}
    groups = (
        ("varies (ClusterParams fields, their defaults, and who moves them)",
         [name for name in names if name in varies]),
        ("calibration (constants: Sun-3-class hosts, 10 Mb/s Ethernet)",
         [name for name in names if name not in varies]),
    )
    for title, group in groups:
        print(f"\n{title}:")
        for name in group:
            unit, note = rows[name]
            value = getattr(params, name)
            if unit == "on/off":
                shown = "on" if value else "off"
            else:
                shown = f"{value * _SCALE.get(unit, 1):.6g}"
            print(f"  {name:27} {shown:>8} {unit:8} {note}")
    print("\nmeasured on a two-node micro-cluster (what the numbers above add up to):")
    for label, value in measure_calibration(params).rows().items():
        print(f"  {label:36} {value:g}")
    print(f"\nAppendix A: {len(APPENDIX_A)} kernel calls classified:")
    for klass, count in sorted(classes_of().items()):
        print(f"  {klass:16} {count}")
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("demos:        " + " ".join(sorted(DEMOS)))
    print("experiments:  " + " ".join(sorted(EXPERIMENTS)))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    examples = _find_dir("examples")
    if examples is None:
        print("error: examples/ not found (run from a source checkout)",
              file=sys.stderr)
        return 2
    script = examples / DEMOS[args.name]
    print(f"running {script}\n")
    runpy.run_path(str(script), run_name="__main__")
    return 0


def cmd_report(_args: argparse.Namespace) -> int:
    from .report import collect_report

    benchmarks = _find_dir("benchmarks")
    if benchmarks is None:
        print("error: benchmarks/ not found (run from a source checkout)",
              file=sys.stderr)
        return 2
    results = benchmarks / "results"
    if not results.is_dir():
        print("error: no benchmarks/results — run "
              "`pytest benchmarks/ --benchmark-only` first", file=sys.stderr)
        return 2
    output = benchmarks.parent / "REPRODUCTION_REPORT.md"
    collect_report(results, output=output)
    print(f"wrote {output}")
    return 0


class _CaptureClusters:
    """Context manager that wraps ``SpriteCluster.__init__`` so every
    cluster a traced workload builds comes up with observability
    installed (spans + tracer on, metrics hooks attached)."""

    def __init__(self, sample_period: Optional[float] = None,
                 profile: bool = False):
        self.sample_period = sample_period
        self.profile = profile
        self.captured: list = []

    def __enter__(self) -> "_CaptureClusters":
        from .cluster import SpriteCluster
        from .obs import ClusterObservability, EngineProfiler

        self._original = SpriteCluster.__init__
        original = self._original
        captured = self.captured
        period = self.sample_period
        profile = self.profile

        def patched(cluster, *cargs, **ckwargs):
            original(cluster, *cargs, **ckwargs)
            obs = ClusterObservability.install(
                cluster, spans=True, trace=True, sample_period=period
            )
            if profile:
                EngineProfiler().install(cluster.sim)
            captured.append((cluster, obs))

        SpriteCluster.__init__ = patched
        return self

    def __exit__(self, *exc_info) -> None:
        from .cluster import SpriteCluster

        SpriteCluster.__init__ = self._original


def _trace_builtin_migration() -> None:
    """Fixed scenario: two jobs, two migrations, fully deterministic."""
    from .cluster import SpriteCluster
    from .fs import OpenMode
    from .sim import Sleep, spawn

    cluster = SpriteCluster(workstations=3, start_daemons=False)
    src, dst1, dst2 = cluster.hosts[0], cluster.hosts[1], cluster.hosts[2]

    def job(proc):
        fd = yield from proc.open(
            f"/trace-{proc.pcb.pid}", OpenMode.WRITE | OpenMode.CREATE
        )
        yield from proc.compute(2.0)
        yield from proc.close(fd)
        return proc.pcb.current

    pcb1, _ = src.spawn_process(job, name="job1")
    pcb2, _ = src.spawn_process(job, name="job2")

    def driver():
        yield Sleep(0.5)
        manager = cluster.manager_of(src)
        yield from manager.migrate(pcb1, dst1.address, reason="offload")
        yield from manager.migrate(pcb2, dst2.address, reason="offload")

    spawn(cluster.sim, driver(), name="trace-driver")
    cluster.run_until_complete(pcb1.task)
    cluster.run_until_complete(pcb2.task)


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        migration_breakdowns,
        render_flame,
        render_span_summary,
        spans_to_chrome_trace,
        trace_to_jsonl,
    )

    out_dir = pathlib.Path(args.out) if args.out else (
        pathlib.Path("traces") / args.target
    )
    capture = _CaptureClusters(sample_period=args.sample)
    with capture:
        if args.target == "migration":
            _trace_builtin_migration()
        elif args.target in DEMOS:
            examples = _find_dir("examples")
            if examples is None:
                print("error: examples/ not found (run from a source "
                      "checkout)", file=sys.stderr)
                return 2
            runpy.run_path(str(examples / DEMOS[args.target]),
                           run_name="__main__")
        else:
            benchmarks = _find_dir("benchmarks")
            if benchmarks is None:
                print("error: benchmarks/ not found (run from a source "
                      "checkout)", file=sys.stderr)
                return 2
            import pytest

            code = pytest.main(
                [str(benchmarks / EXPERIMENTS[args.target]),
                 "--benchmark-only", "-q", "-x"]
            )
            if code != 0:
                print(f"warning: experiment exited with {code}; exporting "
                      "whatever was captured", file=sys.stderr)
    if not capture.captured:
        print("error: the workload never built a SpriteCluster; nothing "
              "to trace", file=sys.stderr)
        return 1

    records = [r for cluster, _obs in capture.captured
               for r in cluster.tracer.records]
    spans = [s for _cluster, obs in capture.captured
             for s in obs.spans.finished]

    # Filters ----------------------------------------------------------
    # A filter that matches nothing is almost always a typo (wrong host
    # name, misspelled span prefix); fail loudly instead of exporting an
    # empty trace that looks like a successful run.
    if args.kinds:
        wanted = {k.strip() for k in args.kinds.split(",") if k.strip()}
        records = [r for r in records if r.kind in wanted]
        if not records:
            print(f"error: --kinds {args.kinds!r} matched no trace records "
                  f"(captured kinds differ); nothing to export",
                  file=sys.stderr)
            return 1
    if args.host:
        records = [r for r in records if args.host in r.source]
        spans = [s for s in spans if args.host in s.source]
        if not records and not spans:
            print(f"error: --host {args.host!r} matched no records or spans "
                  f"(no source contains it); nothing to export",
                  file=sys.stderr)
            return 1
    if args.span:
        prefixes = tuple(p.strip() for p in args.span.split(",") if p.strip())
        spans = [s for s in spans if s.name.startswith(prefixes)]
        if not spans:
            print(f"error: --span {args.span!r} matched no spans "
                  f"(check the prefixes against docs/observability.md); "
                  f"nothing to export", file=sys.stderr)
            return 1

    # Artifacts --------------------------------------------------------
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_to_jsonl(records, out_dir / "trace.jsonl")
    spans_to_chrome_trace(spans, out_dir / "trace_chrome.json")
    snapshots = [obs.snapshot() for _cluster, obs in capture.captured]
    import json

    (out_dir / "metrics.json").write_text(
        json.dumps(snapshots, indent=1, sort_keys=True) + "\n"
    )
    summary = render_span_summary(spans)
    flame = render_flame(spans)
    (out_dir / "summary.txt").write_text(summary + "\n\n" + flame + "\n")

    # Console report ---------------------------------------------------
    print(f"captured {len(capture.captured)} cluster(s), "
          f"{len(records)} trace records, {len(spans)} spans")
    print(f"\n{summary}\n")
    breakdowns = migration_breakdowns(spans)
    if breakdowns:
        print("migrations:")
        for row in breakdowns:
            status = "refused" if row["refused"] else "ok"
            print(f"  pid {row['pid']} {row['source']}→{row['target']} "
                  f"({row['reason']}, {status}): total {row['total']:.4f}s "
                  f"freeze {row['freeze']:.4f}s")
        print()
    print(f"wrote trace.jsonl, trace_chrome.json, metrics.json, summary.txt "
          f"to {out_dir}/")
    return 0


def cmd_critpath(args: argparse.Namespace) -> int:
    """Causal critical-path analysis of a traced workload."""
    from .obs import critpath_report

    capture = _CaptureClusters(profile=args.profile)
    with capture:
        if args.target == "migration":
            _trace_builtin_migration()
        else:
            examples = _find_dir("examples")
            if examples is None:
                print("error: examples/ not found (run from a source "
                      "checkout)", file=sys.stderr)
                return 2
            runpy.run_path(str(examples / DEMOS[args.target]),
                           run_name="__main__")
    if not capture.captured:
        print("error: the workload never built a SpriteCluster; nothing "
              "to analyze", file=sys.stderr)
        return 1
    spans = [s for _cluster, obs in capture.captured
             for s in obs.spans.finished]
    report = critpath_report(spans, limit=args.limit)
    if args.profile:
        from .obs import EngineProfiler

        merged = EngineProfiler()
        for cluster, _obs in capture.captured:
            profiler = cluster.sim.profiler
            if profiler is not None:
                merged.merge_from(profiler)
        report += "\n\n" + merged.render()
    print(report)
    if args.out:
        out_path = pathlib.Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(report + "\n")
        print(f"\nwrote {out_path}", file=sys.stderr)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos runs + invariant audit (+ optional determinism check)."""
    import json

    from .faults import build_chaos_base, run_chaos
    from .snapshot import SweepRunner

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if args.crash_matrix:
        return _cmd_crash_matrix(args, seeds)
    reports = []
    failed = False
    for seed in seeds:
        # Build-and-warm once per seed; every run is a fork of that
        # base (two forks when verifying determinism), fanned over
        # --workers concurrent child processes.
        base = build_chaos_base(seed=seed, workstations=args.hosts)
        runs = 2 if args.verify_determinism else 1

        def chaos_cell(cluster, _run_index):
            return run_chaos(
                duration=args.duration,
                random_churn=args.churn,
                mtbf=args.mtbf,
                jobs=args.jobs,
                base=cluster,
                policy=args.policy,
                checkpoint_interval=args.checkpoint_interval,
                checkpoint_mode=args.checkpoint_mode,
                job_memory=args.job_memory,
                adversarial=args.adversarial,
            )

        pair = SweepRunner(base, workers=args.workers).run(
            list(range(runs)), chaos_cell
        )
        report = pair[0]
        reports.append(report)
        if args.verify_determinism:
            again = pair[1]
            if again.fingerprint != report.fingerprint:
                failed = True
                print(f"seed {seed}: NONDETERMINISTIC "
                      f"({report.fingerprint[:16]} != {again.fingerprint[:16]})",
                      file=sys.stderr)
        if report.violations:
            failed = True
        if not args.json:
            status = "CLEAN" if report.clean else "VIOLATIONS"
            print(f"seed {seed}: {status} — {report.jobs} jobs "
                  f"({report.jobs_finished} finished, {report.jobs_lost} lost), "
                  f"{report.migrations} migrations, {report.refusals} refusals, "
                  f"{report.faults} faults, fingerprint {report.fingerprint[:16]}")
            if args.adversarial:
                print(f"    adversarial: "
                      f"{report.packets_duplicated} duplicated / "
                      f"{report.packets_reordered} reordered / "
                      f"{report.packets_corrupted} corrupted packets, "
                      f"{report.checksum_drops} checksum drops, "
                      f"{report.duplicates_suppressed} dupes suppressed, "
                      f"{report.dedup_replays} replays, "
                      f"{report.double_executions} double executions")
                print(f"    detector: {report.suspicions_declared} declared, "
                      f"{report.false_suspicions} false, "
                      f"{report.reconciles} reconciled; "
                      f"backpressure {report.backpressure_refusals} refusals, "
                      f"{report.inbox_overflows} inbox overflows")
            if report.policy != "migrate":
                print(f"    policy {report.policy}: "
                      f"{report.checkpoints} checkpoints, "
                      f"{report.restores} restores, "
                      f"{report.torn_images} torn, "
                      f"availability {report.availability:.2f}, "
                      f"goodput {report.goodput:.3f}")
            for event in report.events:
                print(f"    {event}")
            for violation in report.violations:
                print(f"    VIOLATION {violation}")
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=1,
                         sort_keys=True))
    return 1 if failed else 0


def _cmd_crash_matrix(args: argparse.Namespace, seeds: list) -> int:
    """The exhaustive migration-transaction crash matrix."""
    import json

    from .faults import run_matrix

    failed = False
    reports = []
    for seed in seeds:
        report = run_matrix(
            seed=seed, max_cells=args.cells, workers=args.workers
        )
        reports.append(report)
        if args.verify_determinism:
            again = run_matrix(
                seed=seed, max_cells=args.cells, workers=args.workers
            )
            if again.fingerprint != report.fingerprint:
                failed = True
                print(f"seed {seed}: NONDETERMINISTIC "
                      f"({report.fingerprint[:16]} != "
                      f"{again.fingerprint[:16]})", file=sys.stderr)
        if not report.clean:
            failed = True
        if not args.json:
            clean = sum(1 for c in report.cells if c.clean)
            status = "CLEAN" if report.clean else "VIOLATIONS"
            print(f"seed {seed}: {status} — {clean}/{len(report.cells)} "
                  f"cells clean, fingerprint {report.fingerprint[:16]}")
            for cell in report.cells:
                print(f"    {cell}")
                for violation in cell.in_flight_violations:
                    print(f"        IN-FLIGHT VIOLATION {violation}")
                for violation in cell.violations:
                    print(f"        VIOLATION {violation}")
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=1,
                         sort_keys=True))
    return 1 if failed else 0


def cmd_experiment(args: argparse.Namespace) -> int:
    benchmarks = _find_dir("benchmarks")
    if benchmarks is None:
        print("error: benchmarks/ not found (run from a source checkout)",
              file=sys.stderr)
        return 2
    target = benchmarks / EXPERIMENTS[args.id]
    command = [
        sys.executable, "-m", "pytest", str(target),
        "--benchmark-only", "-q", "-s",
    ]
    print(f"running {' '.join(command)}\n")
    return subprocess.call(command, cwd=str(benchmarks.parent))


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.cli import cmd_lint as _cmd_lint

    return _cmd_lint(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Sprite process-migration reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="calibration + Appendix A summary")
    sub.add_parser("list", help="available demos and experiments")
    demo = sub.add_parser("demo", help="run an example scenario")
    demo.add_argument("name", choices=sorted(DEMOS))
    experiment = sub.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument("id", choices=sorted(EXPERIMENTS))
    sub.add_parser("report", help="stitch benchmark artifacts into one report")
    trace = sub.add_parser(
        "trace",
        help="run a workload with spans+metrics on and export the trace",
    )
    trace.add_argument(
        "target",
        choices=["migration"] + sorted(DEMOS) + sorted(EXPERIMENTS),
        help="'migration' (builtin fixed scenario), a demo, or an experiment",
    )
    trace.add_argument("--out", default=None,
                       help="output directory (default traces/<target>/)")
    trace.add_argument("--kinds", default=None,
                       help="comma-separated record kinds to keep in "
                            "trace.jsonl (e.g. span,migrated,call)")
    trace.add_argument("--host", default=None,
                       help="keep only records/spans whose source contains "
                            "this substring (e.g. ws1)")
    trace.add_argument("--span", default=None,
                       help="comma-separated span-name prefixes to keep "
                            "(e.g. mig.,rpc.)")
    trace.add_argument("--sample", type=float, default=None,
                       help="metrics sampling period in sim seconds "
                            "(off by default: a sampler keeps the event "
                            "queue non-empty)")
    critpath = sub.add_parser(
        "critpath",
        help="causal critical-path analysis: per-migration latency "
             "attribution and the whole-run critical path",
    )
    critpath.add_argument(
        "target",
        choices=["migration"] + sorted(DEMOS),
        help="'migration' (builtin fixed scenario) or a demo",
    )
    critpath.add_argument("--out", default=None,
                          help="also write the report to this file")
    critpath.add_argument("--limit", type=int, default=40,
                          help="max critical-path segments to print")
    critpath.add_argument("--profile", action="store_true",
                          help="attach the engine hot-spot profiler and "
                               "append its per-subsystem event report")
    chaos = sub.add_parser(
        "chaos",
        help="fault-injection runs with an invariant audit",
    )
    chaos.add_argument("--seeds", default="0",
                       help="comma-separated seeds, one run each")
    chaos.add_argument("--hosts", type=int, default=5,
                       help="number of workstations")
    chaos.add_argument("--duration", type=float, default=120.0,
                       help="sim seconds of chaos before quiescing")
    chaos.add_argument("--jobs", type=int, default=12,
                       help="background jobs to run under churn")
    chaos.add_argument("--adversarial", action="store_true",
                       help="adversarial network: duplicating/reordering/"
                            "corrupting links, suspicion-based failure "
                            "detector, migration backpressure caps")
    chaos.add_argument("--churn", action="store_true",
                       help="seeded-random host churn instead of the "
                            "scripted gauntlet")
    chaos.add_argument("--mtbf", type=float, default=60.0,
                       help="mean time between host crashes (--churn)")
    chaos.add_argument("--policy", default="migrate",
                       choices=["migrate", "proactive-migrate",
                                "checkpoint", "checkpoint-restart",
                                "hybrid"],
                       help="fault-tolerance policy: proactive "
                            "migration (default, today's behaviour), "
                            "checkpoint/restart, or both")
    chaos.add_argument("--checkpoint-interval", type=float, default=None,
                       help="sim seconds between checkpoints "
                            "(default ClusterParams.checkpoint_interval)")
    chaos.add_argument("--checkpoint-mode", default="full",
                       choices=["full", "incremental"],
                       help="image mode: full, or dirty-page deltas "
                            "chained on the last full image")
    chaos.add_argument("--job-memory", type=int, default=0,
                       help="bytes of address space per chaos job "
                            "(sizes checkpoint images; 0 keeps the "
                            "golden workload)")
    chaos.add_argument("--verify-determinism", action="store_true",
                       help="run each seed twice and require "
                            "byte-identical trace fingerprints")
    chaos.add_argument("--crash-matrix", action="store_true",
                       help="run the migration-transaction crash matrix "
                            "({source,target,home,fs} x {crash,partition} "
                            "x every txn step boundary) instead of the "
                            "workload gauntlet")
    chaos.add_argument("--cells", type=int, default=None,
                       help="with --crash-matrix: bound the run to an "
                            "evenly-spread subset of this many cells "
                            "(default: all 88)")
    chaos.add_argument("--workers", type=int, default=1,
                       help="concurrent forked worker processes for "
                            "chaos runs and crash-matrix cells; "
                            "fingerprints are identical for any value")
    chaos.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
    lint = sub.add_parser(
        "lint",
        help="AST invariant linter (determinism, trace guards, RPC "
             "conformance, txn hygiene, error hierarchies)",
    )
    from .analysis.cli import add_arguments as _add_lint_arguments

    _add_lint_arguments(lint)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "list": cmd_list,
        "demo": cmd_demo,
        "experiment": cmd_experiment,
        "report": cmd_report,
        "trace": cmd_trace,
        "critpath": cmd_critpath,
        "chaos": cmd_chaos,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
