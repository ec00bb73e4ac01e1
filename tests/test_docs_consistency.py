"""Meta-tests: the documentation, CLI, and benchmark suite agree."""

import pathlib
import re

from repro.cli import DEMOS, EXPERIMENTS
from repro.report import EXPERIMENT_ORDER

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_design_md_indexes_every_cli_experiment():
    design = (REPO / "DESIGN.md").read_text()
    for exp_id in EXPERIMENTS:
        assert re.search(rf"\|\s*{exp_id}\s*\|", design), (
            f"{exp_id} missing from DESIGN.md per-experiment index"
        )


def test_experiments_md_covers_every_cli_experiment():
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for exp_id in EXPERIMENTS:
        assert re.search(rf"\b{exp_id}\b", experiments), (
            f"{exp_id} missing from EXPERIMENTS.md"
        )


def test_report_index_covers_every_bench_archive_name():
    """Every archive() name used by the benchmarks is in the report index."""
    indexed = {name for name, _ in EXPERIMENT_ORDER}
    for bench in (REPO / "benchmarks").glob("bench_*.py"):
        for match in re.finditer(r'archive\(\s*"([^"]+)"', bench.read_text()):
            assert match.group(1) in indexed, (
                f"{bench.name} archives {match.group(1)!r}, "
                "not in report.EXPERIMENT_ORDER"
            )


def test_every_bench_file_is_run_by_the_cli():
    cli_files = set(EXPERIMENTS.values())
    actual = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
    assert actual == cli_files, (
        f"CLI missing: {actual - cli_files}; stale: {cli_files - actual}"
    )


def test_readme_mentions_every_demo():
    readme = (REPO / "README.md").read_text()
    for script in DEMOS.values():
        assert script in readme, f"README missing examples/{script}"


def test_design_substitution_table_present():
    design = (REPO / "DESIGN.md").read_text()
    assert "Why the substitution preserves behaviour" in design
    assert "repro band = 2/5" in design
