"""E4 — Remote exec vs local exec (thesis ch. 7).

Migration at exec time is Sprite's cheap path: the old address space is
discarded, so only the PCB, open streams, and the argument/environment
bytes cross the wire.  The paper compares fork+exec locally against
fork+exec with migration, sweeping the argument size; rsh provides the
non-transparent alternative.
"""

from __future__ import annotations

from repro import KB, SpriteCluster
from repro.baselines import rsh_run
from repro.obs import Table

from common import run_simulated

IMAGE = "/bin/cc"


def _target_program(proc):
    return 0
    yield  # pragma: no cover


def measure(kind: str, arg_bytes: int) -> float:
    """Elapsed fork+exec+exit time for one child under ``kind``."""
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    cluster.standard_images()
    a, b = cluster.hosts[0], cluster.hosts[1]

    def parent_local(proc):
        start = proc.now

        def child(cproc):
            yield from cproc.exec(
                _target_program, image_path=IMAGE, arg_bytes=arg_bytes
            )

        yield from proc.fork(child, name="child")
        yield from proc.wait()
        return proc.now - start

    def parent_remote(proc):
        start = proc.now

        def child(cproc):
            yield from cproc.exec(
                _target_program, image_path=IMAGE, arg_bytes=arg_bytes,
                host=b.address,
            )

        yield from proc.fork(child, name="child")
        yield from proc.wait()
        return proc.now - start

    def parent_rsh(proc):
        start = proc.now
        yield from rsh_run(proc, b, _rsh_child)
        return proc.now - start

    parents = {"local": parent_local, "remote-exec": parent_remote,
               "rsh": parent_rsh}
    # Warm both clients' image caches first, so we measure the steady
    # state the paper measures (compilers are always cached).
    def warm(proc):
        def child(cproc):
            yield from cproc.exec(_target_program, image_path=IMAGE)
        yield from proc.fork(child, name="warm")
        yield from proc.wait()
        return 0

    cluster.run_process(a, warm, name="warm-a")
    cluster.run_process(b, warm, name="warm-b")
    return cluster.run_process(a, parents[kind], name=kind)


def _rsh_child(proc):
    yield from proc.exec(_target_program, image_path=IMAGE)


def build_table() -> Table:
    table = Table(
        title="E4: fork+exec cost, local vs exec-time migration vs rsh "
              "(model ms, warm image caches)",
        columns=["mechanism", "args 2KB", "args 16KB", "args 64KB"],
    )
    sizes = (2 * KB, 16 * KB, 64 * KB)
    results = {}
    for kind in ("local", "remote-exec", "rsh"):
        row = [measure(kind, size) * 1e3 for size in sizes]
        results[kind] = row
        table.add_row(kind, *row)
    table.notes = (
        "remote exec adds state+args wire time to the local cost; "
        "no VM moves (thesis: exec-time migration is the cheap path)"
    )
    return table, results


def test_e4_exec_migration(benchmark, archive):
    table, results = run_simulated(benchmark, build_table)
    archive("E4_exec_migration", table.render())
    local, remote, rsh = results["local"], results["remote-exec"], results["rsh"]
    # Remote exec costs more than local, but stays the same order of
    # magnitude (no VM transfer).
    assert local[0] < remote[0] < 20 * local[0]
    # Argument size moves the remote cost (wire time), and barely moves
    # the local one.
    assert remote[2] > remote[0]
    assert abs(local[2] - local[0]) < 0.3 * local[0] + 5.0
