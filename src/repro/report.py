"""Assemble the reproduction report from archived benchmark artifacts.

``pytest benchmarks/ --benchmark-only`` leaves one rendered table/figure
per experiment under ``benchmarks/results/``; this module stitches them
into a single markdown report so the whole evaluation can be read (or
diffed against a previous run) in one place.

Usage::

    python -m repro report             # writes REPRODUCTION_REPORT.md
"""

from __future__ import annotations

import pathlib
from datetime import datetime, timezone
from typing import List, Optional, Tuple

__all__ = ["collect_report", "EXPERIMENT_ORDER"]

#: Presentation order with one-line summaries.
EXPERIMENT_ORDER: List[Tuple[str, str]] = [
    ("E1_migration_breakdown", "Migration cost breakdown (ch. 7)"),
    ("E2_vm_policies", "VM-transfer policies: freeze vs size (§4.2.1)"),
    ("E3_forwarding", "Kernel-call costs local vs remote + A2 forward-all ablation"),
    ("E4_exec_migration", "Exec-time migration vs local exec vs rsh"),
    ("E5_pmake_speedup", "pmake speedup vs parallelism (ch. 7)"),
    ("E6_simfarm", "Simulation-farm effective utilization (ch. 7)"),
    ("E7_host_selection", "Host-selection architectures (ch. 6, Table 6.2)"),
    ("A1_version_guard", "Migration version-number guard (§4.5)"),
    ("E8_eviction", "Eviction / host reclaim times (ch. 8)"),
    ("E9_availability", "Host availability by hour (ch. 8)"),
    ("E10_usage", "Production usage window (ch. 8)"),
    ("E11_placement_vs_migration", "Placement-only vs eviction migration"),
    ("E12_distributed_selection", "Distributed-selection staleness ([SvE89])"),
    ("A3_flood_prevention", "Flood-prevention ablation ([BSW89])"),
    ("B1_condor_comparison", "Sprite vs Condor checkpoint/restart (ch. 2)"),
    ("S1_network_sweep", "Network-speed sensitivity (extension)"),
    ("S2_assignment_caching", "Host-assignment caching (ch. 9 future work)"),
    ("P1_engine", "Engine throughput microbenchmarks (infrastructure)"),
    ("P2_sweep", "Snapshot/fork sweep runner cost model (infrastructure)"),
    ("P3_faults", "Fault-injection overhead + chaos gauntlet (infrastructure)"),
    ("P8_checkpoint", "Migration vs checkpoint/restart tradeoff study"),
]

HEADER = """\
# Reproduction report — Sprite process migration

Generated {stamp} from the artifacts in `benchmarks/results/`.
Regenerate with `pytest benchmarks/ --benchmark-only` followed by
`python -m repro report`.  Paper-vs-measured commentary lives in
`EXPERIMENTS.md`; this file is the raw regenerated evaluation.
"""


def collect_report(
    results_dir: pathlib.Path,
    output: Optional[pathlib.Path] = None,
    stamp: Optional[str] = None,
) -> str:
    """Build the report text (and write it when ``output`` is given).

    Missing artifacts are listed rather than silently skipped, so a
    partial benchmark run is visible in the report.
    """
    # lint: disable=determinism-wallclock(report header stamp is offline metadata, never sim-visible)
    stamp = stamp or datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%MZ")
    sections: List[str] = [HEADER.format(stamp=stamp)]
    missing: List[str] = []
    known = {name for name, _ in EXPERIMENT_ORDER}
    for name, summary in EXPERIMENT_ORDER:
        path = results_dir / f"{name}.txt"
        if not path.is_file():
            missing.append(name)
            continue
        sections.append(f"## {name} — {summary}\n")
        sections.append("```")
        sections.append(path.read_text().rstrip())
        sections.append("```\n")
    extras = sorted(
        p.stem for p in results_dir.glob("*.txt") if p.stem not in known
    )
    for name in extras:
        sections.append(f"## {name} (unindexed artifact)\n")
        sections.append("```")
        sections.append((results_dir / f"{name}.txt").read_text().rstrip())
        sections.append("```\n")
    if missing:
        sections.append(
            "## Missing artifacts\n\nNot found (benchmarks not run?): "
            + ", ".join(missing)
            + "\n"
        )
    text = "\n".join(sections)
    if output is not None:
        output.write_text(text)
    return text
