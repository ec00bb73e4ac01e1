"""Tests for the observability layer: tracer queries, spans, metrics,
exporters, and the span-derived migration phase timings."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro import SpriteCluster
from repro.fs import OpenMode
from repro.migration import (
    MigrationRecord,
    MigrationRefused,
    refusal_reasons,
    summarize_records,
)
from repro.obs import (
    MetricsRegistry,
    MetricsSampler,
    migration_critical_paths,
    render_flame,
    render_span_summary,
    spans_to_chrome_trace,
    trace_to_jsonl,
)
from repro.sim import Simulator, Sleep, Tracer, run_until_complete, spawn

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Tracer query semantics (satellites 1 and 2)
# ----------------------------------------------------------------------
def _filled_tracer(times):
    tracer = Tracer(enabled=True)
    for t in times:
        tracer.emit(t, "src", "tick", i=t)
    return tracer


def test_between_matches_linear_scan():
    times = [0.0, 0.5, 0.5, 1.0, 2.5, 2.5, 2.5, 3.0, 10.0]
    tracer = _filled_tracer(times)
    for start, end in [(-1, 11), (0.5, 2.5), (0.6, 2.4), (2.5, 2.5),
                       (3.0, 3.0), (4.0, 9.0), (10.0, 99.0), (11.0, 12.0)]:
        expected = [r for r in tracer.records if start <= r.time <= end]
        assert tracer.between(start, end) == expected, (start, end)


def test_between_matches_linear_scan_over_mirrored_spans():
    # A born-finished span is mirrored into the trace when it is
    # stored, stamped with its *end* time — which can precede the
    # record before it, so `records` is not time-sorted (a bisection
    # returned [3.0, 2.0] for the window [0, 2.5] here).
    tracer = Tracer(enabled=True)
    tracer.spans_enabled = True
    tracer.emit(3.0, "src", "tick")
    tracer.record_span("mig.freeze", "mig:ws0", 1.0, 2.0)
    tracer.emit(4.0, "src", "tick")
    assert [r.time for r in tracer.records] == [3.0, 2.0, 4.0]
    for start, end in [(0.0, 2.5), (2.5, 3.5), (1.5, 3.0), (3.5, 9.0)]:
        expected = [r for r in tracer.records if start <= r.time <= end]
        assert tracer.between(start, end) == expected, (start, end)


def test_between_is_inclusive_and_returns_list():
    tracer = _filled_tracer([1.0, 2.0, 3.0])
    got = tracer.between(1.0, 2.0)
    assert isinstance(got, list)
    assert [r.time for r in got] == [1.0, 2.0]
    assert tracer.between(5.0, 6.0) == []


def test_disabled_tracer_stores_nothing():
    tracer = Tracer()
    tracer.emit(1.0, "s", "kind")
    assert len(tracer) == 0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_ids_are_per_tracer():
    tracer = Tracer()
    first = tracer.record_span("work", "host", 0.0, 1.0)
    second = tracer.record_span("work", "host", 1.0, 2.0)
    other = Tracer().record_span("work", "host", 0.0, 1.0)
    assert (first.sid, second.sid, other.sid) == (1, 2, 1)
    assert first.tracer is tracer and other.tracer is not tracer


def test_span_start_finish_and_parents():
    tracer = Tracer()
    tracer.spans_enabled = True
    root = tracer.start_span("work", "host", t=1.0, pid=7)
    child = tracer.start_span("step", "host", parent=root, t=1.5)
    child.finish(t=2.0)
    root.finish(t=3.0)
    assert root.duration == pytest.approx(2.0)
    assert child.parent_sid == root.sid
    assert tracer.finished_spans == [child, root]
    assert root.parent_sid is None
    assert not tracer.open_spans


def test_span_record_is_born_finished():
    tracer = Tracer()
    span = tracer.record_span("phase", "host", 1.0, 4.0, why="x")
    assert span.finished and span.duration == pytest.approx(3.0)
    assert not tracer.open_spans


def test_span_finish_rejects_negative_duration():
    tracer = Tracer()
    span = tracer.start_span("work", "host", t=5.0)
    with pytest.raises(ValueError):
        span.finish(t=4.0)


def test_spans_mirror_into_tracer_only_when_tracer_enabled():
    tracer = Tracer(enabled=True)
    tracer.record_span("phase", "host", 0.0, 1.0)
    assert [r.kind for r in tracer.records] == ["span"]
    assert tracer.records[0].detail["dur"] == pytest.approx(1.0)

    silent = Tracer()  # disabled
    silent.record_span("phase", "host", 0.0, 1.0)
    assert len(silent) == 0
    assert len(silent.finished_spans) == 1  # span itself is still kept


def test_enabling_tracer_does_not_enable_spans():
    """A fixed-seed trace must not change when only the flat records
    are on: span emission needs its own switch."""
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    cluster.tracer.enabled = True
    assert not cluster.tracer.spans_enabled
    assert cluster.hosts[0].rpc.tracer is cluster.tracer


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_registry_counters_gauges_timers():
    registry = MetricsRegistry()
    registry.counter("mig.started", 1).inc()
    registry.counter("mig.started", 1).inc(2)
    registry.counter("mig.started", 2).inc()
    assert registry.counter("mig.started", 1).value == 3
    assert registry.total("mig.started") == 4
    registry.gauge("load", 1).set(2.5)
    assert registry.gauge("load", 1).value == 2.5
    registry.timer("freeze", 1).observe(0.1)
    registry.timer("freeze", 2).observe(0.3)
    merged = registry.merged_timer("freeze")
    assert merged.count == 2
    assert merged.total == pytest.approx(0.4)
    snap = registry.snapshot()
    assert snap["counters"]["mig.started@1"] == 3
    assert snap["timers"]["freeze@1"]["count"] == 1
    json.dumps(snap)  # must be JSON-able


def test_sampler_records_time_series():
    sim = Simulator()
    registry = MetricsRegistry()
    sampler = MetricsSampler(sim, registry, period=1.0)
    readings = iter(range(100))
    sampler.add_probe("val", None, lambda: next(readings))
    sampler.start()
    sim.run(until=3.5)
    points = registry.series[("val", None)]
    assert [t for t, _v in points] == pytest.approx([1.0, 2.0, 3.0])
    assert [v for _t, v in points] == [0.0, 1.0, 2.0]
    assert sampler.samples_taken == 3
    with pytest.raises(ValueError):
        MetricsSampler(sim, registry, period=0.0)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_spans():
    tracer = Tracer()
    root = tracer.record_span("mig.migrate", "mig:ws0", 0.0, 1.0, pid=1,
                              src=2, dst=3, reason="test")
    tracer.record_span("mig.negotiate", "mig:ws0", 0.0, 0.25, parent=root)
    tracer.record_span("mig.freeze", "mig:ws0", 0.25, 1.0, parent=root)
    tracer.record_span("rpc.call", "rpc:ws1", 0.1, 0.2, service="x")
    return tracer.finished_spans


def test_chrome_trace_shape(tmp_path):
    spans = _sample_spans()
    path = tmp_path / "trace_chrome.json"
    doc = spans_to_chrome_trace(spans, path)
    reloaded = json.loads(path.read_text())
    assert reloaded == doc
    events = doc["traceEvents"]
    assert all("ph" in e and "ts" in e and "pid" in e for e in events)
    spans_x = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(spans_x) == 4
    assert {m["args"]["name"] for m in metas} == {"mig:ws0", "rpc:ws1"}
    root_event = next(e for e in spans_x if e["name"] == "mig.migrate")
    assert root_event["ts"] == 0 and root_event["dur"] == pytest.approx(1e6)
    # Children reference the root's span id.
    child = next(e for e in spans_x if e["name"] == "mig.negotiate")
    assert child["args"]["parent"] == root_event["args"]["sid"]


def test_chrome_trace_empty(tmp_path):
    path = tmp_path / "empty.json"
    doc = spans_to_chrome_trace([], path)
    assert doc == {"traceEvents": [], "displayTimeUnit": "ms"}
    assert json.loads(path.read_text()) == doc


def test_chrome_trace_skips_unfinished_spans():
    tracer = Tracer()
    tracer.spans_enabled = True
    done = tracer.start_span("rpc.call", "rpc:ws0", t=0.0)
    done.finish(1.0)
    live = tracer.start_span("mig.migrate", "mig:ws0", t=0.5)  # open at quiesce
    doc = spans_to_chrome_trace(
        tracer.finished_spans + list(tracer.open_spans.values())
    )
    assert not live.finished
    names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
    assert names == ["rpc.call"]
    # And the unfinished span never reaches .finished_spans either.
    assert [s.name for s in tracer.finished_spans] == ["rpc.call"]


def test_chrome_trace_overlapping_same_name_spans_one_host():
    tracer = Tracer()
    first = tracer.record_span("rpc.call", "rpc:ws0", 0.0, 2.0, service="a")
    second = tracer.record_span("rpc.call", "rpc:ws0", 1.0, 3.0, service="b")
    doc = spans_to_chrome_trace(tracer.finished_spans)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    # One process row, both complete events preserved with distinct
    # sids — overlap must not merge or drop either event.
    assert len(metas) == 1 and len(xs) == 2
    assert {e["pid"] for e in xs} == {metas[0]["pid"]}
    assert {e["args"]["sid"] for e in xs} == {first.sid, second.sid}
    assert [e["ts"] for e in xs] == [0.0, 1e6]
    assert all(e["dur"] == pytest.approx(2e6) for e in xs)


def test_jsonl_roundtrip(tmp_path):
    tracer = Tracer(enabled=True)
    tracer.emit(1.0, "s", "k", n=1, obj=object())
    path = tmp_path / "trace.jsonl"
    trace_to_jsonl(tracer.records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["time"] == 1.0 and row["kind"] == "k"
    assert isinstance(row["detail"]["obj"], str)  # stringified safely


def test_text_views_render():
    spans = _sample_spans()
    summary = render_span_summary(spans)
    assert "mig.migrate" in summary and "count" in summary
    flame = render_flame(spans)
    assert flame.index("mig.migrate") < flame.index("mig.negotiate")
    assert "  mig.negotiate" in flame  # indented under the root
    assert render_flame([]) == "(no finished spans)"


# ----------------------------------------------------------------------
# End-to-end: spans through a real migration
# ----------------------------------------------------------------------
def _migrate_once(observed=True):
    cluster = SpriteCluster(workstations=3, start_daemons=False)
    obs = cluster.observability(trace=True) if observed else None
    src, dst = cluster.hosts[0], cluster.hosts[1]

    def job(proc):
        fd = yield from proc.open("/obs-test", OpenMode.WRITE | OpenMode.CREATE)
        yield from proc.compute(2.0)
        yield from proc.close(fd)
        return proc.pcb.current

    pcb, _ = src.spawn_process(job, name="job")
    records = []

    def driver():
        yield Sleep(0.5)
        manager = cluster.managers[pcb.current]
        record = yield from manager.migrate(pcb, dst.address, reason="manual")
        records.append(record)

    spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(pcb.task)
    return cluster, obs, records[0]


def test_migration_spans_partition_total_time():
    cluster, _obs, record = _migrate_once()
    rows = migration_critical_paths(cluster.tracer.finished_spans)
    assert len(rows) == 1
    row = rows[0]
    assert row.pid == record.pid
    assert row.source == record.source
    assert row.target == record.target
    assert row.reason == record.reason
    assert not row.refused
    # The acceptance criterion: phase durations sum exactly to the
    # record's total, and the root's extent equals it too.
    assert row.ended - row.started == pytest.approx(
        record.total_time, abs=1e-12
    )
    assert row.total == pytest.approx(record.total_time, rel=1e-9)
    # The frozen interval splits at the commit point: freeze covers
    # park -> commit, commit covers the post-commit duties.
    phases = {phase.phase: phase.seconds for phase in row.phases}
    assert phases["freeze"] + phases["commit"] == pytest.approx(
        record.freeze_time, abs=1e-12
    )
    assert phases["commit"] == pytest.approx(record.commit_time, abs=1e-12)
    assert record.commit_started > 0.0
    assert row.started == record.started
    assert row.ended == record.ended
    # Lifecycle sub-steps exist under the root.
    names = {s.name for s in cluster.tracer.finished_spans}
    assert {"mig.migrate", "mig.negotiate", "mig.wait_safe_point",
            "mig.freeze", "mig.commit", "mig.commit_rpc", "mig.state_pack",
            "mig.streams", "mig.install", "rpc.call", "rpc.serve"} <= names


def test_migration_spans_are_deterministic():
    c1, _obs1, _r1 = _migrate_once()
    c2, _obs2, _r2 = _migrate_once()
    key = lambda c: [(s.name, s.start, s.end) for s in c.tracer.finished_spans]
    assert key(c1) == key(c2)


def test_migration_metrics_counters_and_timers():
    _cluster, obs, record = _migrate_once()
    registry = obs.registry
    assert registry.counter("mig.started", record.source).value == 1
    assert registry.counter("mig.completed", record.source).value == 1
    assert registry.total("mig.refused") == 0
    freeze = registry.timer("mig.freeze", record.source).histogram
    assert freeze.count == 1
    assert freeze.total == pytest.approx(record.freeze_time)
    # The registry is folded from the records on every read.
    assert obs.registry.snapshot() == registry.snapshot()
    rpc = obs.rpc_by_service()
    assert rpc["mig.install"]["calls"] == 1
    assert rpc["mig.negotiate"]["served"] == 1
    assert obs.lan_by_kind()["rpc-request"] > 0
    json.dumps(obs.snapshot())


def test_registry_folds_records_made_before_install():
    """``mig.*`` is read from ``manager.records``, not collected by a
    hook, so a migration finished before ``observability()`` counts."""
    cluster, _obs, record = _migrate_once(observed=False)
    registry = cluster.observability().registry
    assert registry.counter("mig.completed", record.source).value == 1
    freeze = registry.timer("mig.freeze", record.source).histogram
    assert freeze.total == record.freeze_time


def test_unobserved_cluster_collects_nothing():
    cluster, _obs, _record = _migrate_once(observed=False)
    assert not cluster.tracer.spans_enabled
    assert len(cluster.tracer.finished_spans) == 0
    assert cluster.hosts[0].rpc.stats is None
    assert cluster.lan.kind_bytes is None
    assert len(cluster.tracer) == 0


def test_refused_migration_gets_refused_root_span():
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    obs = cluster.observability()
    src, dst = cluster.hosts[0], cluster.hosts[1]
    cluster.managers[dst.address].accept_hook = lambda args: False

    def job(proc):
        yield from proc.compute(2.0)

    pcb, _ = src.spawn_process(job, name="job")
    failures = []

    def driver():
        yield Sleep(0.2)
        try:
            yield from cluster.managers[src.address].migrate(pcb, dst.address)
        except MigrationRefused as err:
            failures.append(err)

    spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(pcb.task)
    assert failures
    roots = [s for s in cluster.tracer.finished_spans
             if s.name == "mig.migrate"]
    assert len(roots) == 1
    assert roots[0].attrs["refused"] is True
    assert roots[0].finished
    assert obs.registry.total("mig.refused") == 1
    assert obs.registry.total("mig.completed") == 0
    reasons = refusal_reasons(cluster.migration_records())
    assert reasons == {"host not accepting foreign work": 1}


def test_eviction_span_and_metrics():
    cluster, obs, record = _migrate_once()
    # The job already finished, so re-plant a foreign process: migrate a
    # fresh one over, then reclaim the host through its own daemon.
    src, dst = cluster.hosts[0], cluster.hosts[1]
    assert record.target == dst.address
    daemon = cluster.evictors[1]

    def job(proc):
        yield from proc.compute(5.0)

    pcb, _ = src.spawn_process(job, name="guest")

    def driver():
        yield Sleep(0.2)
        yield from cluster.managers[src.address].migrate(pcb, dst.address)
        yield Sleep(0.5)
        yield from daemon.evict_now()

    run_until_complete(cluster.sim, driver(), name="driver")
    assert len(daemon.events) == 1
    event = daemon.events[0]
    assert event.victims == 1
    reclaim = [s for s in cluster.tracer.finished_spans
               if s.name == "evict.reclaim"]
    assert len(reclaim) == 1
    assert reclaim[0].duration == pytest.approx(event.reclaim_seconds)
    assert obs.registry.counter("evict.events", dst.address).value == 1
    assert obs.registry.counter("evict.victims", dst.address).value == 1


# ----------------------------------------------------------------------
# migration/stats edge cases (satellite 4)
# ----------------------------------------------------------------------
def _record(refused=False, why=None, vm=None, total=1.0, freeze=0.5):
    record = MigrationRecord(
        pid=1, name="p", source=1, target=2, reason="manual",
        policy="flush", started=0.0, ended=total,
        freeze_started=total - freeze, freeze_ended=total,
        refused=refused, vm=vm,
    )
    if why is not None:
        record.detail["refusal"] = why
    return record


def test_summarize_records_all_refused():
    records = [_record(refused=True, why="no"), _record(refused=True)]
    summary = summarize_records(records)
    assert summary == {"count": 0, "refused": 2}


def test_summarize_records_vm_none():
    summary = summarize_records([_record(vm=None)])
    assert summary["count"] == 1
    assert summary["vm_bytes_total"] == 0.0
    assert summary["mean_total_s"] == pytest.approx(1.0)
    assert summary["mean_freeze_s"] == pytest.approx(0.5)


def test_refusal_reasons_counts_and_defaults():
    records = [
        _record(refused=True, why="version mismatch"),
        _record(refused=True, why="version mismatch"),
        _record(refused=True),        # no reason recorded
        _record(refused=False),       # ignored
    ]
    assert refusal_reasons(records) == {
        "version mismatch": 2, "unspecified": 1,
    }


# ----------------------------------------------------------------------
# Tooling (satellites 3 and 6)
# ----------------------------------------------------------------------
def test_chrome_trace_validator(tmp_path):
    spans = _sample_spans()
    good = tmp_path / "good.json"
    spans_to_chrome_trace(spans, good)
    validator = REPO_ROOT / "tools" / "validate_chrome_trace.py"
    ok = subprocess.run([sys.executable, str(validator), str(good)],
                        capture_output=True, text=True)
    assert ok.returncode == 0, ok.stderr
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [{"name": "x", "ph": "X"}]}))
    fail = subprocess.run([sys.executable, str(validator), str(bad)],
                          capture_output=True, text=True)
    assert fail.returncode == 1
