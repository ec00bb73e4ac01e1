"""Tests for the command-line interface."""

import argparse
import pathlib

import pytest

from repro.cli import DEMOS, build_parser, main
from repro.report import EXPERIMENTS

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_parser_accepts_all_subcommands():
    parser = build_parser()
    assert parser.parse_args(["info"]).command == "info"
    assert parser.parse_args(["list"]).command == "list"
    assert parser.parse_args(["demo", "quickstart"]).name == "quickstart"
    assert parser.parse_args(["experiment", "E5"]).id == "E5"
    # Critical-path attribution is part of `trace`, not a command.
    with pytest.raises(SystemExit):
        parser.parse_args(["critpath", "migration"])


def test_experiment_and_trace_accept_exactly_the_table_ids():
    ids = {row.id for row in EXPERIMENTS}
    assert len(ids) == len(EXPERIMENTS) == 22 and {"A1", "A2"} <= ids
    (commands,) = (action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))

    def choices(command, dest):
        (arg,) = (a for a in commands.choices[command]._actions if a.dest == dest)
        return set(arg.choices)

    assert choices("experiment", "id") == ids
    untraceable = {"E2", "E9", "S1"}
    assert choices("trace", "target") == (
        (ids - untraceable) | set(DEMOS) | {"migration"}
    )


@pytest.mark.parametrize("target", ["E2", "E9", "S1"])
def test_trace_rejects_experiments_it_cannot_capture(target, capsys):
    # E2 and S1 build each cluster in a forked sweep child and E9 none:
    # a trace of them captured nothing and exited 1.  They stay
    # experiments.
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["trace", target])
    assert "invalid choice" in capsys.readouterr().err
    assert parser.parse_args(["experiment", target]).id == target


def test_traced_bench_archives_beside_the_trace(tmp_path, capsys):
    # Spans on move P8's fingerprints: the traced rendering lands in the
    # trace's output directory, and benchmarks/results stays as it was.
    results = REPO_ROOT / "benchmarks" / "results"
    before = {path.name: path.read_bytes() for path in results.iterdir()}
    out = tmp_path / "trace"
    assert main(["trace", "P8", "--out", str(out)]) == 0
    after = {path.name: path.read_bytes() for path in results.iterdir()}
    assert after == before
    traced = (out / "P8_checkpoint.txt").read_text()
    assert traced != (results / "P8_checkpoint.txt").read_text()
    assert "fingerprint" in traced and (out / "P8_checkpoint.json").exists()


def test_chaos_help_describes_the_crash_matrix(capsys):
    from repro.faults.crashmatrix import MATRIX_KINDS, matrix_cells

    with pytest.raises(SystemExit):
        main(["chaos", "--help"])
    out = " ".join(capsys.readouterr().out.split())  # undo line wrapping
    assert f"all {len(matrix_cells())}" in out
    assert "{" + ",".join(MATRIX_KINDS) + "}" in out


def test_parser_rejects_unknown_demo():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["demo", "nonexistent"])


def test_info_prints_calibration_and_appendix(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "net_bandwidth" in out
    assert "Appendix A" in out
    assert "local" in out


def test_info_names_every_parameter_once_with_its_unit(capsys):
    import dataclasses

    from repro.config import ClusterParams

    assert main(["info"]) == 0
    lines = capsys.readouterr().out.splitlines()
    varies = lines.index(next(l for l in lines if l.startswith("varies")))
    calibration = lines.index(next(l for l in lines if l.startswith("calibration")))
    measured = lines.index(next(l for l in lines if l.startswith("measured")))
    fields = {field.name for field in dataclasses.fields(ClusterParams)}
    for name in ClusterParams.__annotations__:
        rows = [n for n, line in enumerate(lines) if line.split()[:1] == [name]]
        assert len(rows) == 1, (name, rows)
        (row,) = rows
        if name in fields:
            assert varies < row < calibration, name
        else:
            assert calibration < row < measured, name
            unit = lines[row].split()[2]
            assert unit in ("ms", "s", "KB/s", "bytes", "count", "ratio",
                            "entries", "blocks"), lines[row]
    # The measured primitives follow, from validation.measure_calibration.
    tail = "\n".join(lines[measured:])
    for label in ("null RPC", "bulk throughput", "local kernel call", "lookup"):
        assert label in tail
    for gone in ("checkpoint_state_cpu", "cpu_speed", "extras"):
        assert gone not in ClusterParams.__annotations__


def test_list_names_everything(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in DEMOS:
        assert name in out
    for row in EXPERIMENTS:
        assert row.id in out


def test_every_demo_script_exists():
    for script in DEMOS.values():
        assert (REPO_ROOT / "examples" / script).is_file(), script


def test_every_experiment_bench_exists():
    for row in EXPERIMENTS:
        assert (REPO_ROOT / "benchmarks" / row.bench).is_file(), row.bench


def test_demo_runs_quickstart(capsys):
    assert main(["demo", "quickstart"]) == 0
    out = capsys.readouterr().out
    assert "transparency" in out


def test_parser_accepts_trace_with_filters():
    parser = build_parser()
    args = parser.parse_args(
        ["trace", "migration", "--kinds", "span,migrated", "--host", "ws0",
         "--span", "mig.", "--out", "/tmp/x"]
    )
    assert args.command == "trace"
    assert args.target == "migration"
    assert args.kinds == "span,migrated"
    assert args.host == "ws0"
    assert args.span == "mig."
    assert args.sample is None
    with pytest.raises(SystemExit):
        parser.parse_args(["trace", "not-a-target"])


def test_trace_migration_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "trace"
    assert main(["trace", "migration", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "migrations:" in printed
    assert "mig.migrate" in printed
    for name in ("trace.jsonl", "trace_chrome.json", "metrics.json",
                 "summary.txt", "critpath.txt"):
        assert (out / name).stat().st_size > 0, name
    import json

    doc = json.loads((out / "trace_chrome.json").read_text())
    events = doc["traceEvents"]
    assert events
    assert all("ph" in e and "ts" in e and "pid" in e for e in events)
    for line in (out / "trace.jsonl").read_text().splitlines():
        json.loads(line)
    json.loads((out / "metrics.json").read_text())


def test_trace_span_filter_limits_chrome_events(tmp_path):
    out = tmp_path / "filtered"
    assert main(["trace", "migration", "--out", str(out),
                 "--span", "mig."]) == 0
    import json

    doc = json.loads((out / "trace_chrome.json").read_text())
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert names and all(n.startswith("mig.") for n in names)


def test_trace_unmatched_filters_fail_loudly(tmp_path, capsys):
    # A filter that matches nothing is almost always a typo; the CLI
    # must exit non-zero with a clear message, not export empty files.
    cases = [
        (["--kinds", "no-such-kind"], "--kinds"),
        (["--host", "no-such-host"], "--host"),
        (["--span", "nope."], "--span"),
    ]
    for extra, flag in cases:
        out = tmp_path / flag.strip("-")
        assert main(["trace", "migration", "--out", str(out)] + extra) == 1
        err = capsys.readouterr().err
        assert "error:" in err and flag in err, err
        assert not out.exists(), "no artifacts on filter error"


def test_trace_writes_critpath_attribution(tmp_path):
    out = tmp_path / "trace"
    assert main(["trace", "migration", "--out", str(out)]) == 0
    report = (out / "critpath.txt").read_text()
    assert "critical-path attribution (2 migrations):" in report
    assert "= freeze" in report
    assert "critical-path profile (whole run):" in report


def test_trace_summary_ends_with_engine_profile(tmp_path):
    out = tmp_path / "trace"
    assert main(["trace", "migration", "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "engine profile:" in summary
    assert "by subsystem (shard candidates)" in summary
    # After the span summary and the flame view.
    assert summary.index("mig.migrate") < summary.index("engine profile:")


def test_critpath_report_is_deterministic(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["trace", "migration", "--out", str(first)]) == 0
    assert main(["trace", "migration", "--out", str(second)]) == 0
    for name in ("critpath.txt", "summary.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
