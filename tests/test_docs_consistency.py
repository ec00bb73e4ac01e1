"""Meta-tests: the documentation, CLI, and benchmark suite agree."""

import pathlib
import re

from repro.cli import DEMOS
from repro.report import EXPERIMENTS

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_design_md_indexes_every_cli_experiment():
    design = (REPO / "DESIGN.md").read_text()
    for row in EXPERIMENTS:
        assert re.search(rf"\|\s*{row.id}\s*\|", design), (
            f"{row.id} missing from DESIGN.md per-experiment index"
        )


def test_experiments_md_covers_every_cli_experiment():
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for row in EXPERIMENTS:
        assert re.search(rf"\b{row.id}\b", experiments), (
            f"{row.id} missing from EXPERIMENTS.md"
        )


def test_report_index_covers_every_bench_archive_name():
    """The archive() names each bench writes are exactly its rows' archives."""
    written = {
        (bench.name, match.group(1))
        for bench in (REPO / "benchmarks").glob("bench_*.py")
        for match in re.finditer(r'archive\(\s*"([^"]+)"', bench.read_text())
    }
    assert written == {(row.bench, row.archive) for row in EXPERIMENTS}


def test_every_bench_file_is_run_by_the_cli():
    cli_files = {row.bench for row in EXPERIMENTS}
    actual = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
    assert actual == cli_files, (
        f"CLI missing: {actual - cli_files}; stale: {cli_files - actual}"
    )


def _experiment_sections():
    """EXPERIMENTS.md's ``## <id> — ...`` sections, by id."""
    text = (REPO / "EXPERIMENTS.md").read_text()
    parts = re.split(r"^## (.*)$", text, flags=re.MULTILINE)
    return {heading.split(" — ")[0]: body
            for heading, body in zip(parts[1::2], parts[2::2])}


def test_experiments_md_quotes_numbers_verbatim_from_the_archives():
    """Every backticked number in an id's section is printed by that id's
    archive, and every id quotes at least one."""
    sections = _experiment_sections()
    for row in EXPERIMENTS:
        archive = (REPO / "benchmarks" / "results" / f"{row.archive}.txt").read_text()
        quoted = re.findall(r"`(\d[\d,]*(?:\.\d+)?)`", sections[row.id])
        assert quoted, f"EXPERIMENTS.md's {row.id} section quotes no archived number"
        for number in quoted:
            token = rf"(?<![\d.])(?<!\d,){re.escape(number)}(?!\d|[.,]\d)"
            assert re.search(token, archive), (
                f"{row.id} quotes `{number}`, which {row.archive}.txt does not print"
            )


def test_readme_mentions_every_demo():
    readme = (REPO / "README.md").read_text()
    for script in DEMOS.values():
        assert script in readme, f"README missing examples/{script}"


def test_design_substitution_table_present():
    design = (REPO / "DESIGN.md").read_text()
    assert "Why the substitution preserves behaviour" in design
    assert "repro band = 2/5" in design
