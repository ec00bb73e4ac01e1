#!/usr/bin/env python
"""Parallel compilation with pmake across idle workstations (ch. 7).

Builds the same synthetic source tree sequentially and then with
increasing parallelism via the load-sharing facility, printing the
speedup curve the thesis's flagship experiment reports — including the
Amdahl ceiling imposed by the sequential link step and the file
server's name-lookup load.

Run:  python examples/parallel_make.py
"""

from repro import SpriteCluster
from repro.loadsharing import LoadSharingService
from repro.obs import Table
from repro.workloads import Pmake, SourceTree


def build_once(hosts, jobs, files=10, compile_cpu=6.0, link_cpu=3.0):
    """One full cluster + one build; returns (result, server_lookups)."""
    cluster = SpriteCluster(workstations=hosts, start_daemons=True)
    service = LoadSharingService(cluster, architecture="centralized")
    cluster.standard_images()
    tree = SourceTree(files=files, compile_cpu=compile_cpu, link_cpu=link_cpu)
    tree.populate(cluster)
    cluster.run(until=45.0)  # hosts announce availability

    coordinator_host = cluster.hosts[0]
    client = service.mig_client(coordinator_host) if jobs > 1 else None
    pmake = Pmake(tree, client=client, max_jobs=jobs)

    def coordinator(proc):
        result = yield from pmake.run(proc)
        return result

    pcb, _ = coordinator_host.spawn_process(coordinator, name="pmake")
    lookups_before = cluster.file_server.lookups
    result = cluster.run_until_complete(pcb.task)
    return result, cluster.file_server.lookups - lookups_before


def main():
    table = Table(
        title="pmake: parallel compilation speedup (cf. thesis ch. 7)",
        columns=["jobs", "hosts used", "elapsed (s)", "speedup",
                 "remote jobs", "server lookups"],
        notes="10 compiles + 1 link; sequential link bounds the speedup",
    )
    sequential, _ = build_once(hosts=10, jobs=1)
    print(f"sequential build: {sequential.elapsed:.1f}s "
          f"({sequential.targets_built} targets)")
    table.add_row(1, 1, sequential.elapsed, 1.0, 0, "-")
    for jobs in (2, 4, 6, 8):
        result, lookups = build_once(hosts=10, jobs=jobs)
        table.add_row(
            jobs,
            result.hosts_used + 1,
            result.elapsed,
            sequential.elapsed / result.elapsed,
            result.remote_jobs,
            lookups,
        )
        print(f"jobs={jobs}: {result.elapsed:.1f}s "
              f"(speedup {sequential.elapsed / result.elapsed:.2f}x)")
    table.show()


if __name__ == "__main__":
    main()
