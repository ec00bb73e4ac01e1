"""Property-based tests for the extension components."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import LatencyHistogram
from repro.sim import Sleep


def histogram_of(samples):
    hist = LatencyHistogram()
    for sample in samples:
        hist.add(sample)
    return hist


@given(st.lists(st.floats(min_value=1e-6, max_value=3600.0),
                min_size=1, max_size=200))
def test_histogram_percentiles_monotone_and_bounded(samples):
    hist = histogram_of(samples)
    p50, p95, p99 = (hist.percentile(q) for q in (50, 95, 99))
    assert p50 <= p95 <= p99 <= hist.max_value
    assert hist.count == len(samples)
    assert hist.mean == pytest.approx(float(np.mean(samples)), rel=1e-6)
    # A geometric-bucket percentile overestimates by at most one bucket.
    assert p50 <= max(samples)
    assert p99 >= float(np.percentile(samples, 50)) / hist.factor


@given(st.lists(st.floats(min_value=1e-6, max_value=100.0),
                min_size=1, max_size=50),
       st.lists(st.floats(min_value=1e-6, max_value=100.0),
                min_size=1, max_size=50))
def test_histogram_merge_equals_combined(first_samples, second_samples):
    merged = histogram_of(first_samples)
    merged.merge(histogram_of(second_samples))
    combined = histogram_of(first_samples + second_samples)
    assert merged.count == combined.count
    assert merged.percentile(95) == combined.percentile(95)
    assert merged.max_value == combined.max_value


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=15, deadline=None)
def test_caching_selector_never_double_grants(rounds, data):
    """Interleaved request/release through the cache never hands the
    same host to two outstanding grants."""
    from repro import SpriteCluster
    from repro.loadsharing import CachingSelector, LoadSharingService
    from repro.sim import run_until_complete

    cluster = SpriteCluster(workstations=5, start_daemons=True)
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.run(until=45.0)
    selector = CachingSelector(service.selector_for(cluster.hosts[0]), ttl=5.0)
    sizes = [data.draw(st.integers(min_value=1, max_value=3))
             for _ in range(rounds)]

    def scenario():
        outstanding = set()
        for size in sizes:
            granted = yield from selector.request(size)
            for address in granted:
                assert address not in outstanding, "double grant!"
                outstanding.add(address)
            yield Sleep(1.0)
            yield from selector.release(granted)
            outstanding -= set(granted)
        return True

    assert run_until_complete(cluster.sim, scenario(), name="s") is True
