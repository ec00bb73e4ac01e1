"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterParams
from repro.fs import BlockCache, PrefixTable
from repro.fs.errors import FileNotFound
from repro.fs.protocol import OpenMode
from repro.kernel import PID_STRIDE, home_of_pid
from repro.obs import Table
from repro.sim import Channel, Resource, Simulator, Sleep, spawn
from repro.workloads import ActivityModel, fit_hyperexponential


# ----------------------------------------------------------------------
# Event engine
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=60))
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_cancelled_events_never_fire(entries):
    sim = Simulator()
    fired = []
    handles = []
    for i, (delay, cancel) in enumerate(entries):
        handles.append((sim.schedule(delay, fired.append, i), cancel))
    for handle, cancel in handles:
        if cancel:
            handle.cancel()
    sim.run()
    expected = {i for i, (_d, cancel) in enumerate(entries) if not cancel}
    assert set(fired) == expected


@given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=20))
def test_sequential_sleeps_accumulate_exactly(durations):
    sim = Simulator()

    def sleeper():
        for duration in durations:
            yield Sleep(duration)
        return sim.now

    task = spawn(sim, sleeper())
    sim.run()
    assert task.result == pytest.approx(sum(durations), rel=1e-9)


# ----------------------------------------------------------------------
# Channels: FIFO and conservation
# ----------------------------------------------------------------------
@given(st.lists(st.integers(), min_size=1, max_size=50))
def test_channel_preserves_order_and_items(items):
    sim = Simulator()
    ch = Channel(sim)
    received = []

    def producer():
        for item in items:
            yield ch.put(item)

    def consumer():
        for _ in items:
            received.append((yield ch.get()))

    spawn(sim, producer())
    spawn(sim, consumer())
    sim.run()
    assert received == items


@given(
    st.lists(st.integers(), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=5),
)
def test_bounded_channel_conserves_items(items, capacity):
    sim = Simulator()
    ch = Channel(sim, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield ch.put(item)

    def consumer():
        for _ in items:
            yield Sleep(0.01)
            received.append((yield ch.get()))

    spawn(sim, producer())
    spawn(sim, consumer())
    sim.run()
    assert received == items


# ----------------------------------------------------------------------
# Resources: mutual exclusion
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=1, max_size=15),
)
def test_resource_never_exceeds_capacity(capacity, durations):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    in_use_seen = []

    def holder(duration):
        yield res.hold(duration)
        in_use_seen.append(res.in_use)

    for duration in durations:
        spawn(sim, holder(duration))
    sim.run(until=0.005)  # every holder has asked, none is through
    in_use_seen.append(res.in_use)
    # Work conservation: with enough demand the resource is saturated.
    assert res.in_use == min(len(durations), capacity)
    assert res.queue_length == len(durations) - res.in_use
    sim.run()
    assert max(in_use_seen) <= capacity
    assert res.in_use == 0 and res.queue_length == 0
    # Every hold had a unit to itself for its whole duration.
    assert res.busy_time == pytest.approx(sum(durations))
    assert res.busy_time <= capacity * sim.now * (1 + 1e-9)


# ----------------------------------------------------------------------
# Block cache invariants
# ----------------------------------------------------------------------
range_strategy = st.tuples(
    st.integers(min_value=0, max_value=200_000),   # offset
    st.integers(min_value=1, max_value=64_000),    # nbytes
    st.booleans(),                                 # dirty
)


@given(st.lists(range_strategy, min_size=1, max_size=30),
       st.integers(min_value=1, max_value=32))
def test_cache_never_exceeds_capacity_and_no_dirty_loss(operations, capacity):
    cache = BlockCache(capacity_blocks=capacity, block_size=4096)
    written_back = 0
    for i, (offset, nbytes, dirty) in enumerate(operations):
        evicted = cache.install_range(
            "/f", 1, offset, nbytes, dirty=dirty, now=float(i)
        )
        written_back += len(evicted)
        assert len(cache) <= capacity
        assert all(block.dirty for block in evicted)
    # Every dirty block is either still cached or was handed back for
    # write-back — never silently dropped.
    still_dirty = len(cache.dirty_blocks())
    total_dirtied = len(
        {
            ("/f", index)
            for (offset, nbytes, dirty) in operations
            if dirty
            for index in range(offset // 4096, (offset + nbytes - 1) // 4096 + 1)
        }
    )
    assert still_dirty + written_back >= 0
    assert still_dirty <= total_dirtied


@given(st.lists(range_strategy, min_size=1, max_size=20))
def test_cache_hit_after_install_unless_evicted(operations):
    cache = BlockCache(capacity_blocks=10_000, block_size=4096)  # no eviction
    for i, (offset, nbytes, dirty) in enumerate(operations):
        cache.install_range("/f", 1, offset, nbytes, dirty=dirty, now=float(i))
        hit, miss = cache.lookup_range("/f", 1, offset, nbytes)
        assert miss == 0


# ----------------------------------------------------------------------
# Prefix table
# ----------------------------------------------------------------------
path_segment = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=6
)


@given(st.lists(path_segment, min_size=1, max_size=5), st.data())
def test_longest_prefix_wins(segments, data):
    table = PrefixTable()
    table.add("/", 1)
    prefix = "/" + "/".join(segments)
    table.add(prefix, 2)
    # Any path strictly under the prefix routes to server 2.
    extra = data.draw(path_segment)
    assert table.route(prefix) == 2
    assert table.route(f"{prefix}/{extra}") == 2
    # Sibling paths (prefix + suffix in the same segment) go to root.
    assert table.route(prefix + "x") == 1
    assert table.route("/" + extra + "zz") == 1


def test_prefix_table_requires_absolute_paths():
    table = PrefixTable()
    with pytest.raises(ValueError):
        table.add("relative", 1)
    table.add("/", 1)
    with pytest.raises(ValueError):
        table.route("relative")


def test_empty_prefix_table_raises():
    table = PrefixTable()
    with pytest.raises(FileNotFound):
        table.route("/anything")


# ----------------------------------------------------------------------
# Pid encoding
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=PID_STRIDE - 1))
def test_pid_round_trips_home_address(home, seq):
    pid = home * PID_STRIDE + seq
    assert home_of_pid(pid) == home


# ----------------------------------------------------------------------
# Hyperexponential fit
# ----------------------------------------------------------------------
@given(
    st.floats(min_value=0.5, max_value=10.0),
    st.floats(min_value=1.5, max_value=40.0),
)
def test_hyperexponential_fit_reproduces_moments(mean, std_factor):
    std = mean * std_factor
    p, short, long_ = fit_hyperexponential(mean, std, p_short=0.99)
    assert 0 < short < long_
    assert p <= 0.999999
    fitted_mean = p * short + (1 - p) * long_
    fitted_second = 2 * (p * short**2 + (1 - p) * long_**2)
    fitted_std = math.sqrt(max(fitted_second - fitted_mean**2, 0.0))
    assert fitted_mean == pytest.approx(mean, rel=0.05)
    assert fitted_std == pytest.approx(std, rel=0.10)


# ----------------------------------------------------------------------
# Activity model
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_activity_intervals_disjoint_and_in_range(host_index, days):
    model = ActivityModel(seed=9)
    duration = days * 86400.0
    intervals = model.generate_intervals(host_index, duration)
    previous_stop = 0.0
    for start, stop in intervals:
        assert 0.0 <= start <= stop <= duration + 1e-6
        assert start >= previous_stop
        previous_stop = stop


@given(st.integers(min_value=0, max_value=20))
@settings(max_examples=10, deadline=None)
def test_busy_fraction_bounded(host_index):
    model = ActivityModel(seed=4)
    intervals = model.generate_intervals(host_index, 86400.0)
    frac = model.busy_fraction(intervals, (0.0, 86400.0))
    assert 0.0 <= frac <= 1.0


# ----------------------------------------------------------------------
# ClusterParams helpers
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=10**9))
def test_pages_and_blocks_cover_bytes(nbytes):
    params = ClusterParams()
    assert params.pages(nbytes) * params.page_size >= nbytes
    assert params.blocks(nbytes) * params.fs_block_size >= nbytes
    if nbytes > 0:
        assert (params.pages(nbytes) - 1) * params.page_size < nbytes


def test_clone_does_not_mutate_original():
    params = ClusterParams()
    clone = params.clone(net_bandwidth=1.0)
    assert clone.net_bandwidth == 1.0
    assert params.net_bandwidth != 1.0


# ----------------------------------------------------------------------
# OpenMode flags
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=0xF))
def test_openmode_flags_consistent(mode):
    readable = OpenMode.readable(mode)
    writable = OpenMode.writable(mode)
    assert readable == bool(mode & OpenMode.READ)
    assert writable == bool(mode & (OpenMode.WRITE | OpenMode.APPEND))
    described = OpenMode.describe(mode)
    assert isinstance(described, str) and described


# ----------------------------------------------------------------------
# Table rendering
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.text(min_size=0, max_size=12),
            st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e9, max_value=1e9),
            st.integers(min_value=-10**6, max_value=10**6),
        ),
        min_size=0,
        max_size=10,
    )
)
def test_table_renders_all_rows(rows):
    table = Table(title="t", columns=["a", "b", "c"])
    for row in rows:
        table.add_row(*row)
    rendered = table.render()
    assert "== t ==" in rendered
    # Header + separator + one line per row.
    assert len(rendered.splitlines()) == 3 + len(rows)


def test_table_rejects_ragged_rows():
    table = Table(title="t", columns=["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)
