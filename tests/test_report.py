"""Tests for the reproduction-report assembler."""

import pathlib

from repro.report import EXPERIMENTS, collect_report


def test_report_includes_present_artifacts(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "E1_migration_breakdown.txt").write_text("E1 TABLE CONTENT")
    (results / "E5_pmake_speedup.txt").write_text("E5 FIGURE CONTENT")
    text = collect_report(results, stamp="TEST")
    assert "E1 TABLE CONTENT" in text
    assert "E5 FIGURE CONTENT" in text
    assert "Generated TEST" in text


def test_report_lists_missing_artifacts(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    text = collect_report(results, stamp="TEST")
    assert "Missing artifacts" in text
    for row in EXPERIMENTS:
        assert row.archive in text


def test_report_surfaces_unindexed_artifacts(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "X9_custom.txt").write_text("CUSTOM")
    text = collect_report(results, stamp="TEST")
    assert "X9_custom (unindexed artifact)" in text
    assert "CUSTOM" in text


def test_report_writes_output_file(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "E1_migration_breakdown.txt").write_text("CONTENT")
    out = tmp_path / "report.md"
    collect_report(results, output=out, stamp="TEST")
    assert out.read_text().startswith("# Reproduction report")


def test_report_order_matches_results_dir():
    """Every row's archive is committed, and every archive has a row."""
    results = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"
    indexed = {row.archive for row in EXPERIMENTS}
    actual = {p.stem for p in results.glob("*.txt")}
    assert actual == indexed, (
        f"unindexed: {actual - indexed}; missing: {indexed - actual}"
    )


def test_archive_shared_by_two_rows_is_reported_once(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "E3_forwarding.txt").write_text("E3 AND A2")
    text = collect_report(results, stamp="TEST")
    assert text.count("E3 AND A2") == 1
    assert "## E3_forwarding — Kernel-call costs local vs remote; " \
        "Forward-everything ablation" in text
