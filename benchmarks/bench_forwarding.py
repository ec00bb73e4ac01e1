"""E3 — Cost of kernel calls for remote processes (thesis ch. 4/7) and
A2 — the forward-everything ablation (§4.3).

Two artifacts:

* The kernel-call cost table: a local call costs a fraction of a
  millisecond; the same call forwarded home by a remote process costs
  a full RPC round trip (the paper's gettimeofday comparison), while
  location-independent calls (getpid, file I/O through the shared FS)
  cost the same everywhere — the payoff of transferring state instead
  of forwarding everything.
* The A2 ablation: the same file-heavy job run as a Sprite-migrated
  process vs. under Remote UNIX-style total forwarding, where every
  call pays an RPC and every data byte double-hops via the home.
"""

from __future__ import annotations

from repro import KB, SpriteCluster
from repro.baselines import ForwardingSurrogate, remote_unix_run
from repro.fs import OpenMode
from repro.obs import Table
from repro.sim import Sleep, spawn

from common import run_simulated

CALLS = 50
FILE_BYTES = 256 * KB


def measure_call_costs():
    """Mean per-call time for local vs migrated processes."""
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    a, b = cluster.hosts[0], cluster.hosts[1]
    cluster.add_file("/shared/data", size=FILE_BYTES)
    timings = {}

    def exercise(proc, label):
        start = proc.now
        for _ in range(CALLS):
            yield from proc.gettimeofday()
        timings[f"{label}:gettimeofday"] = (proc.now - start) / CALLS
        start = proc.now
        for _ in range(CALLS):
            yield from proc.getpid()
        timings[f"{label}:getpid"] = (proc.now - start) / CALLS
        fd = yield from proc.open("/shared/data", OpenMode.READ)
        yield from proc.read(fd, FILE_BYTES)   # warm the local cache
        start = proc.now
        for _ in range(10):
            yield from proc.lseek(fd, 0)
            yield from proc.read(fd, 16 * KB)
        timings[f"{label}:cached-read-16K"] = (proc.now - start) / 10
        yield from proc.close(fd)

    def local_job(proc):
        yield from exercise(proc, "local")
        return 0

    def remote_job(proc):
        yield from proc.compute(1.0)   # migrates during this
        yield from exercise(proc, "remote")
        return 0

    cluster.run_process(a, local_job, name="local")
    pcb, _ = a.spawn_process(remote_job, name="remote")

    def driver():
        yield Sleep(0.5)
        yield from cluster.managers[a.address].migrate(pcb, b.address)

    spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(pcb.task)
    return timings


def measure_forward_all():
    """A2: elapsed time of one file-heavy job, Sprite vs forward-all."""
    results = {}

    def io_job_sprite(proc):
        fd = yield from proc.open("/input", OpenMode.READ)
        for _ in range(8):
            yield from proc.lseek(fd, 0)
            yield from proc.read(fd, FILE_BYTES)
        yield from proc.close(fd)
        yield from proc.compute(1.0)
        return 0

    # Sprite: the process migrates, then does I/O directly.
    cluster = SpriteCluster(workstations=2, start_daemons=False)
    cluster.add_file("/input", size=FILE_BYTES)
    a, b = cluster.hosts[0], cluster.hosts[1]
    pcb, _ = a.spawn_process(io_job_sprite, name="sprite-job")

    def driver():
        yield Sleep(0.1)
        yield from cluster.managers[a.address].migrate(pcb, b.address)

    spawn(cluster.sim, driver(), name="driver")
    start = cluster.sim.now
    cluster.run_until_complete(pcb.task)
    results["sprite"] = cluster.sim.now - start
    results["sprite_wire_bytes"] = cluster.lan.bytes_sent

    # Remote UNIX: same job under total forwarding.
    cluster2 = SpriteCluster(workstations=2, start_daemons=False)
    cluster2.add_file("/input", size=FILE_BYTES)
    home, runner = cluster2.hosts[0], cluster2.hosts[1]
    surrogate = ForwardingSurrogate(home)

    def io_job_forwarded(fwd):
        fd = yield from fwd.open("/input", OpenMode.READ)
        for _ in range(8):
            yield from fwd.lseek(fd, 0)
            yield from fwd.read(fd, FILE_BYTES)
        yield from fwd.close(fd)
        yield from fwd.compute(1.0)
        return 0

    def launcher():
        task = yield from remote_unix_run(
            surrogate, runner, io_job_forwarded, image_bytes=1
        )
        yield task.join()

    task = spawn(cluster2.sim, launcher(), name="launcher")
    start = cluster2.sim.now
    cluster2.run_until_complete(task)
    results["forward-all"] = cluster2.sim.now - start
    results["forward_wire_bytes"] = cluster2.lan.bytes_sent
    return results


def build_artifacts():
    timings = measure_call_costs()
    table = Table(
        title="E3: kernel-call cost, local vs migrated process (model ms)",
        columns=["kernel call", "local (ms)", "remote (ms)", "ratio"],
        notes="home-class calls pay an RPC; location-independent calls do not",
    )
    for call in ("gettimeofday", "getpid", "cached-read-16K"):
        local = timings[f"local:{call}"] * 1e3
        remote = timings[f"remote:{call}"] * 1e3
        table.add_row(call, local, remote, remote / local if local else 0)

    ablation = measure_forward_all()
    a2 = Table(
        title="A2: transfer-state (Sprite) vs forward-every-call (Remote UNIX)",
        columns=["design", "elapsed (s)", "wire bytes (KB)"],
        notes="8 x 256 KB reads + 1 s compute on another host",
    )
    a2.add_row("sprite-migration", ablation["sprite"],
               ablation["sprite_wire_bytes"] / KB)
    a2.add_row("forward-all", ablation["forward-all"],
               ablation["forward_wire_bytes"] / KB)
    return table, a2, timings, ablation


def test_e3_forwarding_costs(benchmark, archive):
    table, a2, timings, ablation = run_simulated(benchmark, build_artifacts)
    archive("E3_forwarding", table.render() + "\n\n" + a2.render())
    # Forwarded gettimeofday is many times its local cost.
    assert timings["remote:gettimeofday"] > 3 * timings["local:gettimeofday"]
    # getpid and cached reads stay (nearly) location-independent.
    assert timings["remote:getpid"] < 2 * timings["local:getpid"]
    assert timings["remote:cached-read-16K"] < 2 * timings["local:cached-read-16K"]
    # A2: total forwarding costs more time and roughly double the bytes.
    assert ablation["forward-all"] > ablation["sprite"]
    assert ablation["forward_wire_bytes"] > 1.5 * ablation["sprite_wire_bytes"]
