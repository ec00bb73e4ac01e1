"""Tests for the extension features: histograms, assignment caching,
and environment variables."""

import pytest

from repro import SpriteCluster
from repro.loadsharing import CachingSelector, LoadSharingService
from repro.obs import LatencyHistogram
from repro.sim import (
    Simulator,
    Sleep,
    run_until_complete,
    spawn,
)


# ----------------------------------------------------------------------
# LatencyHistogram
# ----------------------------------------------------------------------
def histogram_of(samples):
    hist = LatencyHistogram()
    for sample in samples:
        hist.add(sample)
    return hist


def test_histogram_summary_shape():
    hist = histogram_of([0.001] * 90 + [0.1] * 9 + [2.0])
    summary = hist.summary()
    assert summary["count"] == 100
    assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
    assert summary["max"] == 2.0
    assert summary["p50"] == pytest.approx(0.001, rel=0.6)


def test_histogram_percentile_bounds():
    hist = LatencyHistogram()
    hist.add(0.5)
    assert hist.percentile(100) == 0.5
    with pytest.raises(ValueError):
        hist.percentile(0)
    with pytest.raises(ValueError):
        hist.add(-1.0)


def test_histogram_merge():
    a, b = histogram_of([0.01, 0.02]), histogram_of([1.0])
    a.merge(b)
    assert a.count == 3
    assert a.max_value == 1.0


def test_histogram_merge_requires_matching_buckets():
    a = LatencyHistogram()
    b = LatencyHistogram(factor=2.0)
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_empty():
    hist = LatencyHistogram()
    assert hist.mean == 0.0
    assert hist.percentile(95) == 0.0


# ----------------------------------------------------------------------
# CachingSelector (future-work extension)
# ----------------------------------------------------------------------
def make_cached_cluster():
    cluster = SpriteCluster(workstations=5, start_daemons=True)
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.run(until=45.0)
    inner = service.selector_for(cluster.hosts[0])
    return cluster, service, CachingSelector(inner, ttl=20.0)


def test_cached_release_and_rerequest_skips_server():
    cluster, service, cached = make_cached_cluster()

    def scenario():
        first = yield from cached.request(2)
        yield from cached.release(first)
        requests_before = service.migd.requests_served
        second = yield from cached.request(2)
        return first, second, service.migd.requests_served - requests_before

    first, second, server_requests = run_until_complete(
        cluster.sim, scenario(), name="scenario"
    )
    assert sorted(second) == sorted(first)   # reused from the cache
    assert server_requests == 0              # no server round trip
    assert cached.cache_hits == 2


def test_cache_expiry_returns_hosts_to_facility():
    cluster, service, cached = make_cached_cluster()

    def scenario():
        granted = yield from cached.request(2)
        yield from cached.release(granted)
        yield Sleep(25.0)                    # past the 20s TTL
        # The next request expires the cache, releasing to the server,
        # then asks the server fresh.
        again = yield from cached.request(2)
        return granted, again

    granted, again = run_until_complete(cluster.sim, scenario(), name="s")
    assert len(again) == 2
    # The facility has them all accounted (no leak): release and re-grant
    # works for a third party too.
    other = service.selector_for(cluster.hosts[1])

    def third_party():
        yield from cached.flush()
        return (yield from other.request(4))

    got = run_until_complete(cluster.sim, third_party(), name="tp")
    assert len(got) >= 2


def test_flush_empties_cache():
    cluster, service, cached = make_cached_cluster()

    def scenario():
        granted = yield from cached.request(2)
        yield from cached.release(granted)
        yield from cached.flush()
        requests_before = service.migd.requests_served
        again = yield from cached.request(1)
        return service.migd.requests_served - requests_before, again

    server_requests, again = run_until_complete(cluster.sim, scenario(), name="s")
    assert server_requests == 1              # cache empty: real request
    assert len(again) == 1


# ----------------------------------------------------------------------
# Environment variables travel with the PCB
# ----------------------------------------------------------------------
def test_env_inherited_and_survives_migration():
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    a, b = cluster.hosts[0], cluster.hosts[1]

    def child(proc):
        yield from proc.compute(2.0)
        yield from proc.exit(0 if proc.pcb.env.get("LANG") == "C" else 1)

    def parent(proc):
        proc.pcb.env["LANG"] = "C"
        yield from proc.fork(child, name="kid")
        status = yield from proc.wait()
        return status.code

    pcb, _ = a.spawn_process(parent, name="parent")

    def driver():
        yield Sleep(0.5)
        kids = [p for p in a.kernel.procs.values() if p.name == "kid"]
        if kids:
            yield from cluster.managers[a.address].migrate(kids[0], b.address)

    spawn(cluster.sim, driver(), name="driver")
    assert cluster.run_until_complete(pcb.task) == 0
