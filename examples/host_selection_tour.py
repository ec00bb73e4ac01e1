#!/usr/bin/env python
"""Tour of the four host-selection architectures (ch. 6).

Runs the same request workload — a client repeatedly asking for idle
hosts while owners come and go — under all four designs the thesis
compares, and prints the trade-off table: request latency, control
messages, and conflicts (stale selections).

Run:  python examples/host_selection_tour.py
"""

from repro import SpriteCluster
from repro.loadsharing import ARCHITECTURES, LoadSharingService
from repro.obs import Table
from repro.sim import Sleep, run_until_complete


def exercise(architecture, hosts=8, rounds=12):
    cluster = SpriteCluster(workstations=hosts, start_daemons=True)
    service = LoadSharingService(cluster, architecture=architecture)
    cluster.run(until=60.0)   # daemons gossip / announce / post
    messages_before = cluster.lan.messages_sent
    selector = service.selector_for(cluster.hosts[0])

    def client():
        got_total = 0
        for round_index in range(rounds):
            granted = yield from selector.request(2)
            got_total += len(granted)
            yield Sleep(2.0)
            yield from selector.release(granted)
            yield Sleep(3.0)
        return got_total

    granted_total = run_until_complete(cluster.sim, client(), name="client")
    return {
        "granted": granted_total,
        "latency_ms": 1000.0 * selector.metrics.mean_latency(),
        "messages": cluster.lan.messages_sent - messages_before,
        "conflicts": service.total_conflicts(),
    }


def main():
    table = Table(
        title="Host selection architectures (cf. thesis Table 6.2)",
        columns=["architecture", "hosts granted", "mean latency (ms)",
                 "LAN messages", "conflicts"],
        notes="same request pattern everywhere; messages include the "
              "facility's own update/gossip traffic over the run",
    )
    for architecture in ARCHITECTURES:
        stats = exercise(architecture)
        table.add_row(
            architecture, stats["granted"], stats["latency_ms"],
            stats["messages"], stats["conflicts"],
        )
        print(f"{architecture}: {stats}")
    table.show()
    print("the thesis's conclusion: the centralized server gives "
          "single-assignment guarantees and global policy at a latency "
          "the alternatives cannot beat by much — and scales further "
          "than multicast or per-host gossip.")


if __name__ == "__main__":
    main()
