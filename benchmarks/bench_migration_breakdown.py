"""E1 — Migration-cost breakdown (thesis ch. 7; SPE'91 Table).

The paper decomposes migration time into per-module costs: a base cost
for a trivial process, a per-open-file cost for stream hand-off, a
per-megabyte cost to flush dirty file blocks, and a per-megabyte cost
to flush dirty virtual memory.  Paper reference points (Sun-3 class):
trivial migration ≈ 76 ms, ≈ 9.4 ms per open file, and dirty-data
flushes dominated by the ~0.5 s/MB effective network/server path.
"""

from __future__ import annotations

from repro import MB, SpriteCluster
from repro.fs import OpenMode
from repro.obs import Table
from repro.sim import Sleep, spawn

from common import run_simulated


def migrate_once(
    open_files: int = 0,
    dirty_file_bytes: int = 0,
    vm_bytes: int = 0,
    dirty_vm_bytes: int = 0,
):
    """One migration with the given state; returns the record."""
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    a, b = cluster.hosts[0], cluster.hosts[1]
    for i in range(open_files):
        cluster.add_file(f"/in{i}", size=4096)

    def job(proc):
        if vm_bytes:
            yield from proc.use_memory(vm_bytes)
        if dirty_vm_bytes:
            yield from proc.dirty_memory(dirty_vm_bytes)
        fds = []
        for i in range(open_files):
            fd = yield from proc.open(f"/in{i}", OpenMode.READ)
            fds.append(fd)
        if dirty_file_bytes:
            fd = yield from proc.open("/out", OpenMode.WRITE | OpenMode.CREATE)
            yield from proc.write(fd, dirty_file_bytes)
            fds.append(fd)
        yield from proc.compute(30.0)
        for fd in fds:
            yield from proc.close(fd)
        return 0

    pcb, _ = a.spawn_process(job, name="subject")
    records = []

    def driver():
        yield Sleep(1.0)
        record = yield from cluster.managers[a.address].migrate(pcb, b.address)
        records.append(record)

    spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(pcb.task)
    return records[0]


def build_table() -> Table:
    table = Table(
        title="E1: migration cost breakdown (model ms; paper: 76ms trivial, "
              "9.4ms/file, ~0.5s/MB flush)",
        columns=["component", "measured (ms)", "marginal cost"],
    )
    trivial = migrate_once()
    table.add_row("trivial process (total)", trivial.total_time * 1e3, "base")

    with_files = {n: migrate_once(open_files=n) for n in (2, 8)}
    per_file = (
        (with_files[8].total_time - with_files[2].total_time) / 6.0 * 1e3
    )
    table.add_row(
        "8 open files (total)", with_files[8].total_time * 1e3,
        f"{per_file:.2f} ms/file",
    )

    dirty_file = migrate_once(dirty_file_bytes=1 * MB)
    table.add_row(
        "1 MB dirty file data (total)", dirty_file.total_time * 1e3,
        f"{(dirty_file.total_time - trivial.total_time) * 1e3:.0f} ms/MB",
    )

    dirty_vm = migrate_once(vm_bytes=2 * MB, dirty_vm_bytes=1 * MB)
    table.add_row(
        "1 MB dirty VM (freeze)", dirty_vm.freeze_time * 1e3,
        f"{(dirty_vm.freeze_time - trivial.freeze_time) * 1e3:.0f} ms/MB",
    )
    return table


def test_e1_migration_breakdown(benchmark, archive):
    table = run_simulated(benchmark, build_table)
    archive("E1_migration_breakdown", table.render())
    trivial_ms = table.rows[0][1]
    # Shape checks: trivial migration is tens of ms; per-file cost is
    # single-digit ms; dirty megabytes dominate everything else.
    assert 10 < trivial_ms < 300
    per_file_ms = float(table.rows[1][2].split()[0])
    assert 1 < per_file_ms < 40
    dirty_total = table.rows[2][1]
    assert dirty_total > 5 * trivial_ms
