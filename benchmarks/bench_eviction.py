"""E8 — Eviction measurements (thesis ch. 8).

When a user returns, how long until their workstation is theirs again?
The thesis measures eviction time as a function of the foreign
process's footprint: the dominant term is flushing dirty pages to the
backing file.  We sweep dirty VM and count of foreign processes.
"""

from __future__ import annotations

from repro import MB, SpriteCluster
from repro.obs import Series, Table
from repro.sim import Sleep, spawn

from common import run_simulated

DIRTY_MB = (0, 1, 2, 4)


def evict_with(dirty_mb: int, guests: int = 1):
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    home, host = cluster.hosts[0], cluster.hosts[1]
    evictor = cluster.evictors[1]

    def job(proc):
        yield from proc.use_memory(max(dirty_mb, 1) * MB)
        if dirty_mb:
            yield from proc.dirty_memory(dirty_mb * MB)
        yield from proc.compute(300.0)
        return 0

    pcbs = [home.spawn_process(job, name=f"guest{i}")[0] for i in range(guests)]
    events = []

    def driver():
        yield Sleep(1.0)
        for pcb in pcbs:
            yield from cluster.managers[home.address].migrate(pcb, host.address)
        yield Sleep(5.0)
        # Guests re-dirty their memory while working on the target.
        for pcb in pcbs:
            pcb.vm.touch(dirty_mb * MB, write=True)
        host.user_input()
        event = yield from evictor.evict_now()
        events.append(event)
        # Don't wait 300s of compute: the measurement is done.
        for pcb in pcbs:
            if pcb.task is not None:
                pcb.task.interrupt(("signal", 9))

    task = spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(task)
    return events[0]


def build_artifacts():
    figure = Series(
        title="E8: host reclaim time vs dirty VM of the foreign process",
        x_label="dirty VM (MB)",
        y_label="reclaim time (s)",
    )
    table = Table(
        title="E8: eviction on user return",
        columns=["dirty VM (MB)", "guests", "reclaim (s)", "victims"],
        notes="reclaim = input event until last foreign process gone; "
              "dominated by the dirty-page flush (Sprite policy)",
    )
    results = {}
    for dirty in DIRTY_MB:
        event = evict_with(dirty)
        results[dirty] = event
        figure.add_point("1 guest", dirty, event.reclaim_seconds)
        table.add_row(dirty, 1, event.reclaim_seconds, event.victims)
    multi = evict_with(1, guests=3)
    table.add_row(1, 3, multi.reclaim_seconds, multi.victims)
    return figure, table, results, multi


def test_e8_eviction(benchmark, archive):
    figure, table, results, multi = run_simulated(benchmark, build_artifacts)
    archive("E8_eviction", figure.render() + "\n\n" + table.render())
    # Clean guests leave in well under a second.
    assert results[0].reclaim_seconds < 0.5
    # Reclaim grows roughly linearly with dirty memory.
    assert results[4].reclaim_seconds > 2 * results[1].reclaim_seconds
    # Multiple guests take longer than one.
    assert multi.victims == 3
    assert multi.reclaim_seconds > results[1].reclaim_seconds
