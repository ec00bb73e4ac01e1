"""The longitudinal perf ledger (`tools/perf_ledger.py` via
`python -m repro perf`): entry construction, history append, and the
regression gate."""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "perf_ledger", REPO_ROOT / "tools" / "perf_ledger.py"
)
ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ledger)


def payload(eps):
    return {
        "mode": "smoke",
        "results": {
            "task_resume": {"events": 1000, "wall_s": 0.1,
                            "events_per_s": eps},
            "raw_callback": {"events": 1000, "wall_s": 0.05,
                             "events_per_s": eps * 2},
        },
    }


def entry(eps, mode="smoke"):
    built = ledger.build_entry(
        smoke=(mode == "smoke"), benchmarks={"bench_engine": payload(eps)}
    )
    built["mode"] = mode
    return built


def test_throughput_metrics_flattens_events_per_s_leaves():
    metrics = ledger.throughput_metrics(entry(50_000.0))
    assert metrics == {
        "bench_engine.results.task_resume.events_per_s": 50_000.0,
        "bench_engine.results.raw_callback.events_per_s": 100_000.0,
    }


def test_full_stack_row_is_gated_on_simulated_seconds_per_wall_second():
    # Skipping events makes events/s fall while the run gets faster: a
    # row that records sim_s_per_wall_s is gated on that alone.
    def e10(events_per_s, sim_rate):
        built = entry(50_000.0)
        built["benchmarks"]["bench_engine"]["results"]["e10_slice"] = {
            "events": 1000, "wall_s": 0.1, "sim_s": 600.0,
            "events_per_s": events_per_s, "sim_s_per_wall_s": sim_rate,
        }
        return built

    path = "bench_engine.results.e10_slice."
    metrics = ledger.throughput_metrics(e10(220_000.0, 13_000.0))
    assert metrics[path + "sim_s_per_wall_s"] == 13_000.0
    assert path + "events_per_s" not in metrics
    history = [e10(220_000.0, 13_000.0)]
    assert ledger.check_regression(history, e10(60_000.0, 40_000.0)) == []
    (failure,) = ledger.check_regression(history, e10(400_000.0, 5_000.0))
    assert "e10_slice.sim_s_per_wall_s" in failure


def test_entry_carries_commit_and_host_metadata():
    built = entry(1.0)
    assert built["commit"] and built["commit"] != ""
    assert set(built["host"]) == {"machine", "processor", "python"}
    assert built["stamp"].endswith("Z")


def test_gate_passes_within_slowdown():
    history = [entry(100_000.0)]
    assert ledger.check_regression(history, entry(60_000.0),
                                   slowdown=2.0) == []


def test_gate_fails_on_injected_synthetic_slowdown():
    # The acceptance criterion: halve throughput beyond the slowdown
    # floor and the gate must fail, naming the metric and the floor.
    history = [entry(100_000.0), entry(80_000.0)]
    failures = ledger.check_regression(history, entry(40_000.0),
                                       slowdown=2.0)
    assert len(failures) == 2  # both metrics regressed
    assert any("task_resume" in f and "regression floor" in f
               for f in failures)


def test_gate_compares_same_mode_only():
    # A fast full-mode recording must not raise the bar for smoke runs.
    history = [entry(1_000_000.0, mode="full")]
    assert ledger.check_regression(history, entry(10_000.0),
                                   slowdown=2.0) == []


def test_gate_first_entry_never_fails():
    assert ledger.check_regression([], entry(1.0), slowdown=2.0) == []


def test_gate_rejects_bad_slowdown():
    with pytest.raises(ValueError):
        ledger.check_regression([], entry(1.0), slowdown=1.0)


def test_append_entry_adds_one_entry_per_run(tmp_path):
    path = tmp_path / "BENCH_history.json"
    ledger.append_entry(path, entry(1.0))
    ledger.append_entry(path, entry(2.0))
    history = ledger.load_history(path)
    assert len(history) == 2
    assert json.loads(path.read_text()) == history


def test_load_history_rejects_non_list(tmp_path):
    path = tmp_path / "BENCH_history.json"
    path.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(ValueError):
        ledger.load_history(path)


def test_committed_ledger_is_valid():
    # The repo ships a seeded ledger; CI appends to it every build.
    history = ledger.load_history(ledger.DEFAULT_HISTORY)
    assert history, "BENCH_history.json must ship with >= 1 entry"
    for item in history:
        assert ledger.throughput_metrics(item), item.get("stamp")
