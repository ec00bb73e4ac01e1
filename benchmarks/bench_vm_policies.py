"""E2 — Migration time vs. VM size under the four transfer policies
(thesis §4.2.1 figure).

The paper's qualitative comparison: monolithic copy freezes the process
for the whole transfer; V's pre-copy shrinks the freeze at the price of
extra total bytes; Accent's copy-on-reference migrates almost
instantly but leaves a residual dependency; Sprite's flush-to-server
pays only for *dirty* pages at freeze time and leaves nothing behind.
"""

from __future__ import annotations

from repro import MB, SpriteCluster
from repro.migration import POLICIES
from repro.obs import ClusterObservability, MetricsRegistry, Series, Table
from repro.sim import Sleep, spawn
from repro.snapshot import forked_map

from common import run_simulated, sweep_workers

VM_SIZES_MB = (1, 2, 4, 8)
DIRTY_FRACTION = 0.25
DIRTY_RATE = 64 * 1024   # bytes/sec re-dirtied during pre-copy rounds


def migrate_with_policy(policy_name: str, vm_mb: int):
    cluster = SpriteCluster(
        workstations=2, start_daemons=False, vm_policy=policy_name
    )
    obs = ClusterObservability.install(cluster, spans=False)
    a, b = cluster.hosts[0], cluster.hosts[1]
    vm_bytes = vm_mb * MB

    def job(proc):
        yield from proc.use_memory(vm_bytes)
        yield from proc.dirty_memory(int(vm_bytes * DIRTY_FRACTION))
        proc.pcb.vm.dirty_rate_hint = DIRTY_RATE
        yield from proc.compute(120.0)
        return 0

    pcb, _ = a.spawn_process(job, name="subject")
    records = []

    def driver():
        yield Sleep(1.0)
        record = yield from cluster.managers[a.address].migrate(pcb, b.address)
        records.append(record)

    spawn(cluster.sim, driver(), name="driver")
    cluster.run_until_complete(pcb.task)
    record = records[0]
    # The scalars the figure/table need, plus the cell's full metrics
    # registry — both cross the child's pipe; the parent merges the
    # registries in cell order (MetricsRegistry.merge_all).
    return {
        "freeze_time": record.freeze_time,
        "bytes_total": record.vm.bytes_total,
        "rounds": record.vm.rounds,
        "residual_dependency": record.vm.residual_dependency,
    }, obs.registry


def build_artifacts():
    figure = Series(
        title="E2: freeze time vs VM size by policy (25% dirty)",
        x_label="VM size (MB)",
        y_label="freeze time (s)",
    )
    table = Table(
        title="E2: VM transfer policies at 8 MB (25% dirty)",
        columns=["policy", "freeze (s)", "total bytes (MB)", "rounds",
                 "residual dependency"],
    )
    cells = [
        (policy_name, vm_mb)
        for policy_name in sorted(POLICIES)
        for vm_mb in VM_SIZES_MB
    ]
    # Each cell migrates on its own fresh cluster in a forked child
    # (repro.snapshot's sweep primitive); index-ordered merge keeps the
    # artifacts byte-identical to the old sequential loop.  Each cell
    # also ships its metrics registry back through the result pipe;
    # the merged aggregate is fingerprint-stable for any worker count.
    outcomes = forked_map(
        lambda i: migrate_with_policy(*cells[i]), len(cells),
        workers=sweep_workers(),
    )
    results = [record for record, _registry in outcomes]
    metrics = MetricsRegistry.merge_all(registry for _r, registry in outcomes)
    last = {}
    for (policy_name, vm_mb), record in zip(cells, results):
        figure.add_point(policy_name, vm_mb, record["freeze_time"])
        last[policy_name] = record
    for policy_name in sorted(POLICIES):
        record = last[policy_name]
        table.add_row(
            policy_name,
            record["freeze_time"],
            record["bytes_total"] / MB,
            record["rounds"],
            "yes" if record["residual_dependency"] else "no",
        )
    freeze = metrics.merged_timer("mig.freeze").summary()
    table.notes = (
        f"sweep aggregate over {len(cells)} cells: "
        f"{metrics.total('mig.completed')} migrations, "
        f"{metrics.total('mig.vm_bytes') / MB:.1f} MB of VM shipped, "
        f"median freeze {freeze['p50']:.4f}s / p99 {freeze['p99']:.4f}s"
    )
    return figure, table, last


def test_e2_vm_policies(benchmark, archive):
    figure, table, last = run_simulated(benchmark, build_artifacts)
    archive("E2_vm_policies", figure.render() + "\n\n" + table.render())
    # The paper's ordering at large VM: the full monolithic copy freezes
    # far longer than every alternative; COR and pre-copy both collapse
    # the freeze to near the state-packaging floor.
    freeze = {name: rec["freeze_time"] for name, rec in last.items()}
    assert freeze["full-copy"] > 5 * freeze["pre-copy"]
    assert freeze["full-copy"] > 5 * freeze["copy-on-reference"]
    assert freeze["flush-to-server"] < freeze["full-copy"]
    # Flush pays for the dirty fraction: between the cheap policies and
    # the monolithic copy.
    assert freeze["flush-to-server"] > freeze["copy-on-reference"]
    # Residual dependency is unique to copy-on-reference.
    assert last["copy-on-reference"]["residual_dependency"]
    assert not last["flush-to-server"]["residual_dependency"]
    # Pre-copy moves more total bytes than the image.
    assert last["pre-copy"]["bytes_total"] >= 8 * MB
