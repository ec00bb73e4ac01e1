"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import DEMOS, EXPERIMENTS, build_parser, main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_parser_accepts_all_subcommands():
    parser = build_parser()
    assert parser.parse_args(["info"]).command == "info"
    assert parser.parse_args(["list"]).command == "list"
    assert parser.parse_args(["demo", "quickstart"]).name == "quickstart"
    assert parser.parse_args(["experiment", "E5"]).id == "E5"


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
    for exp_id in EXPERIMENTS:
        assert exp_id in out


def test_every_demo_script_exists():
    for script in DEMOS.values():
        assert (REPO_ROOT / "examples" / script).is_file(), script


def test_every_experiment_bench_exists():
    for script in EXPERIMENTS.values():
        assert (REPO_ROOT / "benchmarks" / script).is_file(), script


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
                 "summary.txt"):
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


def test_critpath_migration_prints_attribution(tmp_path, capsys):
    out = tmp_path / "critpath.txt"
    assert main(["critpath", "migration", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "critical-path attribution (2 migrations):" in printed
    assert "= freeze" in printed
    assert "critical-path profile (whole run):" in printed
    assert out.read_text() in printed or printed.startswith(
        out.read_text()[:40]
    )


def test_critpath_profile_flag_appends_engine_profile(capsys):
    assert main(["critpath", "migration", "--profile"]) == 0
    printed = capsys.readouterr().out
    assert "engine profile:" in printed
    assert "by subsystem (shard candidates)" in printed


def test_critpath_report_is_deterministic(capsys):
    assert main(["critpath", "migration"]) == 0
    first = capsys.readouterr().out
    assert main(["critpath", "migration"]) == 0
    assert capsys.readouterr().out == first


def test_parser_accepts_critpath():
    parser = build_parser()
    args = parser.parse_args(["critpath", "migration", "--limit", "10",
                              "--profile"])
    assert args.command == "critpath" and args.limit == 10 and args.profile
    with pytest.raises(SystemExit):
        parser.parse_args(["critpath", "not-a-target"])
