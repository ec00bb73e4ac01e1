"""S2 — Host-assignment caching (thesis ch. 9 future work).

"Host assignments may be cached effectively to reduce the rate of
requests to a central server."  The extension wraps a selector with a
short-TTL local cache of released hosts; a bursty client (pmake-style
acquire/release churn) then bothers migd far less often at the same
grant rate.
"""

from __future__ import annotations

from repro import SpriteCluster
from repro.loadsharing import CachingSelector, LoadSharingService
from repro.obs import Table
from repro.sim import Sleep, run_until_complete

from common import run_simulated

ROUNDS = 20


def churn(cached: bool):
    cluster = SpriteCluster(workstations=6, start_daemons=True, seed=2)
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.run(until=45.0)
    selector = service.selector_for(cluster.hosts[0])
    if cached:
        selector = CachingSelector(selector, ttl=15.0)
    requests_before = service.migd.requests_served

    def client():
        granted_total = 0
        for _ in range(ROUNDS):
            granted = yield from selector.request(2)
            granted_total += len(granted)
            yield Sleep(1.0)              # short job
            yield from selector.release(granted)
            yield Sleep(0.5)              # brief gap, then next burst
        return granted_total

    granted_total = run_until_complete(cluster.sim, client(), name="client")
    return {
        "granted": granted_total,
        "server_requests": service.migd.requests_served - requests_before,
        "latency_ms": 1e3 * selector.metrics.mean_latency(),
    }


def build_artifacts():
    plain = churn(cached=False)
    cached = churn(cached=True)
    table = Table(
        title="S2: host-assignment caching (ch. 9 future work) — "
              "bursty acquire/release client",
        columns=["selector", "hosts granted", "migd requests",
                 "mean latency (ms)"],
        notes="the cache reuses released hosts within its TTL, cutting "
              "the central server's request rate",
    )
    table.add_row("plain centralized", plain["granted"],
                  plain["server_requests"], plain["latency_ms"])
    table.add_row("with assignment cache", cached["granted"],
                  cached["server_requests"], cached["latency_ms"])
    return table, plain, cached


def test_s2_assignment_caching(benchmark, archive):
    table, plain, cached = run_simulated(benchmark, build_artifacts)
    archive("S2_assignment_caching", table.render())
    # Same work done...
    assert cached["granted"] == plain["granted"]
    # ...with a fraction of the server traffic and lower request latency.
    assert cached["server_requests"] < plain["server_requests"] / 3
    assert cached["latency_ms"] < plain["latency_ms"]
