"""Critical-path attribution, engine profiler, and sweep metrics
merging (the `repro.obs.critpath` / `.profile` layer plus per-cell
registries folded through `forked_map` and `MetricsRegistry.merge_all`)."""

import pytest

from repro import SpriteCluster
from repro.cli import _CaptureClusters, _trace_builtin_migration
from repro.obs import (
    EngineProfiler,
    MetricsRegistry,
    critpath_report,
    migration_critical_paths,
    render_attribution_table,
    render_flame,
    render_run_path,
    run_critical_path,
)
from repro.obs.critpath import SpanIndex
from repro.sim import Simulator, Sleep, spawn
from repro.sim.trace import Tracer
from repro.snapshot import forked_map


# ----------------------------------------------------------------------
# Builtin scenario capture
# ----------------------------------------------------------------------
def _captured_spans():
    capture = _CaptureClusters()
    with capture:
        _trace_builtin_migration()
    assert len(capture.captured) == 1
    cluster, _obs = capture.captured[0]
    return cluster, list(cluster.tracer.finished_spans)


def test_attribution_partitions_every_migration_exactly():
    _cluster, spans = _captured_spans()
    rows = migration_critical_paths(spans)
    assert len(rows) == 2
    for row in rows:
        assert not row.refused
        # Phases partition the root span (== MigrationRecord.total_time
        # by the test_obs identity); parts partition each phase.
        assert sum(p.seconds for p in row.phases) == pytest.approx(
            row.ended - row.started, abs=1e-12
        )
        for phase in row.phases:
            if phase.parts:
                assert sum(p.seconds for p in phase.parts) == pytest.approx(
                    phase.seconds, abs=1e-12
                )
                # Every phase ends with its (self) remainder, >= 0.
                assert phase.parts[-1].label == "(self)"
                assert all(p.seconds >= 0.0 for p in phase.parts)


def test_attribution_matches_migration_records():
    # Re-run the scenario keeping the records, via the same cluster
    # topology as the CLI's builtin target.
    from repro.fs import OpenMode

    capture = _CaptureClusters()
    with capture:
        cluster = SpriteCluster(workstations=3, start_daemons=False)
        src, dst = cluster.hosts[0], cluster.hosts[1]

        def job(proc):
            fd = yield from proc.open(
                "/critpath", OpenMode.WRITE | OpenMode.CREATE
            )
            yield from proc.compute(2.0)
            yield from proc.close(fd)
            return 0

        pcb, _ = src.spawn_process(job, name="job")
        records = []

        def driver():
            yield Sleep(0.5)
            record = yield from cluster.managers[src.address].migrate(
                pcb, dst.address, reason="manual"
            )
            records.append(record)

        spawn(cluster.sim, driver(), name="driver")
        cluster.run_until_complete(pcb.task)

    assert capture.captured[0][0] is cluster
    rows = migration_critical_paths(list(cluster.tracer.finished_spans))
    assert len(rows) == 1 and len(records) == 1
    assert rows[0].total == pytest.approx(records[0].total_time, rel=1e-9)
    assert rows[0].pid == records[0].pid


def test_critpath_report_is_byte_identical_across_runs():
    _c1, spans1 = _captured_spans()
    _c2, spans2 = _captured_spans()
    report1 = critpath_report(spans1)
    report2 = critpath_report(spans2)
    assert report1 == report2
    assert "critical-path attribution (2 migrations):" in report1
    assert "= freeze" in report1
    assert "critical-path profile (whole run):" in report1


def test_run_critical_path_covers_run_without_overlap():
    _cluster, spans = _captured_spans()
    segments = run_critical_path(spans)
    assert segments
    # Segments tile [first_start, last_end] with no gaps or overlaps
    # (idle intervals appear as explicit "(idle)" segments).
    for left, right in zip(segments, segments[1:]):
        assert right.start == pytest.approx(left.end, abs=1e-12)
    assert any(s.label == "rpc.serve" for s in segments)


def test_spans_of_two_clusters_keep_to_their_own_cluster():
    # Span ids count per cluster, so two captures repeat every id: each
    # migration's attribution, and each root's flame subtree, must come
    # from its own cluster alone.
    _cluster, spans = _captured_spans()
    _other, other = _captured_spans()
    one = migration_critical_paths(spans)
    both = migration_critical_paths(spans + other)
    assert [render_attribution_table([row]) for row in both] == [
        render_attribution_table([row]) for row in one for _ in (1, 2)
    ]
    mig = [s for s in spans if s.name.startswith("mig.")]
    mig_other = [s for s in other if s.name.startswith("mig.")]
    lines = render_flame(mig).splitlines()
    roots = [i for i, line in enumerate(lines) if not line.startswith(" ")]
    assert roots == [0, 11]
    first, second = lines[:11], lines[11:]
    assert render_flame(mig + mig_other).splitlines() == (
        first + first + second + second
    )
    # Each cluster's clock starts at 0: the run path is one per cluster,
    # numbered in list order, never one path over both.
    path = [(g.start, g.end, g.label, g.source)
            for g in run_critical_path(spans)]
    paths = run_critical_path(spans + other)
    assert [(g.start, g.end, g.label, g.source) for g in paths] == path + path
    assert [g.cluster for g in paths] == [0] * len(path) + [1] * len(path)
    text = render_run_path(paths)
    assert text.startswith(
        "critical-path profile (2 clusters, each on its own clock):"
    )
    assert "[cluster 0 " in text
    assert "[cluster" not in render_run_path(run_critical_path(spans))


def test_calls_from_matches_brute_force():
    _cluster, spans = _captured_spans()
    _other, other = _captured_spans()
    index = SpanIndex(spans + other)
    calls = [s for s in index.spans if s.name == "rpc.call"]
    roots = [s for s in index.spans if s.name == "mig.migrate"]
    assert len(roots) == 4
    for root in roots:
        # The window rests on every phase and sub-step lying inside it.
        kids = index.children[(root.tracer, root.sid)]
        assert all(root.start <= k.start and k.end <= root.end for k in kids)
        source = "rpc:" + root.source.split(":", 1)[-1]
        assert index.calls_from(root) == [
            s for s in calls
            if s.tracer is root.tracer and s.source == source
            and s.end >= root.start and s.start <= root.end
        ]
    # Calls listed out of start order, one long call that hides an
    # earlier end from the bisection, and one that starts as the root
    # ends: the window keeps list order and exactly the calls touching
    # the root.
    tracer = Tracer()
    root = tracer.record_span("mig.migrate", "mig:ws1", 5.0, 6.0)
    made = {name: tracer.record_span("rpc.call", "rpc:ws1", start, end)
            for name, start, end in (("inside", 5.5, 5.7), ("before", 3.0, 4.0),
                                     ("long", 0.0, 10.0), ("early", 1.0, 2.0),
                                     ("at_end", 6.0, 7.0), ("after", 7.0, 8.0))}
    tracer.record_span("rpc.call", "rpc:ws2", 5.5, 5.7)
    got = SpanIndex(tracer.finished_spans).calls_from(root)
    assert got == [made["inside"], made["long"], made["at_end"]]


def test_run_critical_path_matches_brute_force():
    # Two captures stand for two clusters: each gets its own path, in
    # the order its first span is listed.
    _cluster, spans = _captured_spans()
    _other, other = _captured_spans()
    for subset in (spans, spans + other[::2], other[1::2] + spans[::3],
                   spans[::2], spans[1::3]):
        index = SpanIndex(subset)
        clusters = {}
        for span in index.spans:
            clusters.setdefault(span.tracer, []).append(span)
        assert [[g.cluster, g.start, g.end, g.label, g.source]
                for g in run_critical_path(subset)] == [
            [number] + segment
            for number, finished in enumerate(clusters.values())
            for segment in _brute_force_path(index, finished)
        ]


def _brute_force_path(index, finished):
    bounds = sorted({b for s in finished for b in (s.start, s.end)})
    expected = []
    for left, right in zip(bounds, bounds[1:]):
        winner = None
        for span in finished:
            if span.start <= left and span.end >= right and (
                winner is None
                or (index.depth(span), span.start, span.sid)
                > (index.depth(winner), winner.start, winner.sid)
            ):
                winner = span
        label = "(idle)" if winner is None else winner.name
        source = "-" if winner is None else winner.source
        if expected and expected[-1][2:] == [label, source]:
            expected[-1][1] = right
        else:
            expected.append([left, right, label, source])
    return expected


def test_render_empty_inputs():
    assert "(no migrations in trace)" in render_attribution_table([])
    assert "(no finished spans)" in render_run_path([])
    assert critpath_report([])  # renders, no crash


def test_rpc_causal_edge_links_serve_to_caller():
    _cluster, spans = _captured_spans()
    calls = {s.sid for s in spans if s.name == "rpc.call"}
    serves = [s for s in spans if s.name == "rpc.serve"]
    assert serves
    linked = [s for s in serves if s.attrs.get("caller_sid") in calls]
    assert linked, "rpc.serve spans must carry their caller's span id"


# ----------------------------------------------------------------------
# Engine profiler
# ----------------------------------------------------------------------
def test_profiler_defaults_off():
    sim = Simulator()
    assert sim.profiler is None


def _pingpong(sim):
    def ticker():
        for _ in range(5):
            yield Sleep(1.0)

    spawn(sim, ticker(), name="ws1:ticker")
    spawn(sim, ticker(), name="ws2:ticker")
    sim.run()
    return sim


def test_profiled_run_matches_unprofiled():
    plain = _pingpong(Simulator())
    profiled = Simulator()
    profiler = EngineProfiler()
    profiler.install(profiled)
    _pingpong(profiled)
    assert profiled.now == plain.now
    assert profiled.events_fired == plain.events_fired
    assert profiler.events == plain.events_fired
    assert sum(profiler.by_source.values()) == profiler.events


def test_profiler_counts_are_deterministic():
    def run_once():
        sim = Simulator()
        profiler = EngineProfiler()
        profiler.install(sim)
        _pingpong(sim)
        return profiler.snapshot()

    assert run_once() == run_once()


def test_profiler_render_and_merge():
    sim = Simulator()
    profiler = EngineProfiler().install(sim)
    _pingpong(sim)

    merged = EngineProfiler()
    merged.merge_from(profiler)
    merged.merge_from(profiler)
    assert merged.events == 2 * profiler.events

    text = profiler.render()
    assert "engine profile:" in text
    assert "by subsystem (shard candidates)" in text
    # Task sources bucket by host prefix ("ws1:ticker" -> "ws").
    assert "ws" in profiler.by_subsystem


def test_capture_profiles_every_cluster():
    cluster, _spans = _captured_spans()
    profiler = cluster.sim.profiler
    assert profiler is not None
    assert profiler.events == cluster.sim.events_fired
    assert profiler.by_subsystem  # migration demo exercises daemons


# ----------------------------------------------------------------------
# Sweep-wide metrics merging
# ----------------------------------------------------------------------
def _cell_job(index):
    registry = MetricsRegistry()
    registry.counter("cell.runs").inc()
    registry.timer("cell.value").observe(float(index + 1))
    return index * index, registry


def _swept_metrics(workers):
    outcomes = forked_map(_cell_job, 6, workers=workers)
    values = [value for value, _registry in outcomes]
    return values, MetricsRegistry.merge_all(r for _v, r in outcomes)


def test_forked_map_merges_cell_metrics_in_index_order():
    for workers in (1, 4):
        values, metrics = _swept_metrics(workers)
        assert values == [i * i for i in range(6)]
        assert metrics.total("cell.runs") == 6
        assert metrics.merged_timer("cell.value").count == 6


def test_merged_cell_metrics_are_worker_invariant():
    _v1, m1 = _swept_metrics(1)
    _v4, m4 = _swept_metrics(4)
    assert m1.snapshot() == m4.snapshot()
