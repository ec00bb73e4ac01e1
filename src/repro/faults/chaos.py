"""The chaos harness: a busy cluster, a fault plan, and an audit.

:func:`run_chaos` is one reproducible experiment: build a cluster with
tracing on, run a defensive workload under automatic load sharing,
unleash a :class:`~repro.faults.FaultPlan` (scripted or seeded-random),
quiesce, and audit the wreckage with the
:class:`~repro.faults.InvariantChecker`.  The returned
:class:`ChaosReport` carries a SHA-256 fingerprint of the full trace —
two runs with the same seed and plan must produce *byte-identical*
traces, which is how both the golden test and ``python -m repro chaos
--verify-determinism`` detect nondeterminism.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..checkpoint import CheckpointService, policy_named
from ..cluster import SpriteCluster
from ..fs import OpenMode
from ..kernel import ProcState
from ..loadsharing import LoadSharingService
from ..sim import Sleep, spawn
from ..snapshot import Snapshot
from .injector import FaultInjector
from .invariants import InvariantChecker
from .plan import FaultPlan

__all__ = [
    "ChaosReport",
    "adversarial_plan",
    "build_chaos_base",
    "run_chaos",
    "trace_fingerprint",
    "builtin_plan",
]


def trace_fingerprint(tracer) -> str:
    """SHA-256 over the rendered trace — byte-identical or bust."""
    payload = "\n".join(str(record) for record in tracer.records)
    return hashlib.sha256(payload.encode()).hexdigest()


def builtin_plan(cluster, duration: float) -> FaultPlan:
    """The default scripted gauntlet, scaled to ``duration``.

    Hits every fault kind once: a full host outage, a network
    partition, a migd outage, a file-server outage, and a lossy link —
    spread over the first ~80% of the run so recovery can finish.
    """
    hosts = cluster.hosts
    t = duration / 100.0  # timeline unit
    plan = FaultPlan()
    if len(hosts) >= 3:
        plan.host_outage(10 * t, hosts[2], 8 * t)
    plan.partition(25 * t, [h.address for h in hosts[:2]])
    plan.heal(33 * t)
    plan.migd_outage(40 * t, 5 * t)
    plan.server_outage(52 * t, 5 * t)
    if len(hosts) >= 4:
        plan.link(60 * t, hosts[0], hosts[3], drop=0.3, delay=0.002)
        plan.link_clear(75 * t, hosts[0], hosts[3])
    return plan


def adversarial_plan(cluster, duration: float) -> FaultPlan:
    """The builtin gauntlet plus an adversarial network underneath it.

    Everything :func:`builtin_plan` does, and in addition the busiest
    links spend most of the run duplicating, reordering, and corrupting
    messages — the environment the exactly-once RPC layer, checksum
    drops, and suspicion damping exist for.  Per-message outcomes are
    drawn from ``faults.net``, so a fixed seed still yields a
    byte-identical trace.
    """
    hosts = cluster.hosts
    t = duration / 100.0
    plan = builtin_plan(cluster, duration)
    if len(hosts) >= 2:
        # The two job-launching homes talk the most: duplicate and
        # reorder their traffic for most of the run.
        plan.link(5 * t, hosts[0], hosts[1],
                  duplicate=0.25, reorder=0.2, reorder_window=0.003)
        plan.link_clear(85 * t, hosts[0], hosts[1])
    if len(hosts) >= 3:
        # Corruption on a migration-target path: checksum drops force
        # retries, which the dedup cache must absorb.
        plan.link(15 * t, hosts[1], hosts[2], corrupt=0.12, duplicate=0.15)
        plan.link_clear(80 * t, hosts[1], hosts[2])
    return plan


@dataclass
class ChaosReport:
    """What happened, whether it was legal, and how to reproduce it."""

    seed: int
    workstations: int
    duration: float
    jobs: int = 0
    jobs_finished: int = 0
    jobs_lost: int = 0
    jobs_ok: int = 0
    migrations: int = 0
    refusals: int = 0
    faults: int = 0
    packets_blocked: int = 0
    packets_dropped: int = 0
    policy: str = "migrate"
    checkpoints: int = 0
    restores: int = 0
    torn_images: int = 0
    unrecoverable: int = 0
    #: Fraction of submitted jobs that completed with exit 0.
    availability: float = 0.0
    #: Successful job-seconds completed per second of wall (sim) time.
    goodput: float = 0.0
    #: Adversarial-network accounting (all zero on clean fabrics).
    packets_duplicated: int = 0
    packets_reordered: int = 0
    packets_corrupted: int = 0
    checksum_drops: int = 0
    duplicates_suppressed: int = 0
    dedup_replays: int = 0
    double_executions: int = 0
    inbox_overflows: int = 0
    #: Failure-detector accounting (zero without ``detector=True``).
    suspicions_declared: int = 0
    false_suspicions: int = 0
    reconciles: int = 0
    #: Admission-control refusals (migd busy + per-host caps).
    backpressure_refusals: int = 0
    violations: List[str] = field(default_factory=list)
    fingerprint: str = ""
    events: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return asdict(self)


def _chaos_job(proc, index: int, work: float):
    """A defensive batch job: compute, write a scratch file, compute.

    Infrastructure failures surface as exceptions from kernel calls;
    the job retries nothing and just reports failure — surviving *or*
    dying cleanly are both legal outcomes the invariant checker can
    account for.
    """
    try:
        yield from proc.compute(work * 0.4)
        fd = yield from proc.open(
            f"/tmp/chaos-{index}", OpenMode.WRITE | OpenMode.CREATE
        )
        yield from proc.write(fd, 4096)
        yield from proc.close(fd)
        yield from proc.compute(work * 0.6)
    except Exception:  # noqa: BLE001 - any infra failure = nonzero exit
        return 1
    return 0


def _chaos_job_resumable(proc, index: int, work: float, memory: int):
    """The chaos job, restart-aware.

    Identical workload to :func:`_chaos_job`, but each compute stage is
    guarded on ``pcb.cpu_time`` so a process restored from a checkpoint
    (which banks the image's CPU progress into ``cpu_time``) skips the
    work its image already paid for and re-runs only the remainder.
    The file write is idempotent and simply re-executed.  ``memory``
    sizes the address space, which sizes the checkpoint images.
    """
    pcb = proc.pcb
    try:
        if memory and pcb.vm.size < memory:
            yield from proc.use_memory(memory)
        if pcb.cpu_time < work * 0.4:
            yield from proc.compute(work * 0.4 - pcb.cpu_time)
        fd = yield from proc.open(
            f"/tmp/chaos-{index}", OpenMode.WRITE | OpenMode.CREATE
        )
        yield from proc.write(fd, 4096)
        yield from proc.close(fd)
        if pcb.cpu_time < work:
            yield from proc.compute(work - pcb.cpu_time)
    except Exception:  # noqa: BLE001 - any infra failure = nonzero exit
        return 1
    return 0


def build_chaos_base(seed: int = 0, workstations: int = 5) -> Snapshot:
    """Build-and-warm the chaos cluster once, captured for forking.

    The returned :class:`~repro.snapshot.Snapshot` carries the traced
    cluster *and* its centralized load-sharing service (as the
    ``service`` extra, so a fork's selectors still point at the fork's
    own hosts).  ``run_chaos(base=...)`` accepts the snapshot or any
    fork of it; every fork replays byte-identically.
    """
    cluster = SpriteCluster(workstations=workstations, seed=seed, trace=True)
    cluster.standard_images()
    service = LoadSharingService(cluster, architecture="centralized")
    return cluster.snapshot(service=service)


def run_chaos(
    seed: int = 0,
    workstations: int = 5,
    duration: float = 120.0,
    random_churn: bool = False,
    mtbf: float = 60.0,
    jobs: int = 12,
    job_length: float = 8.0,
    base: Optional[object] = None,
    policy: str = "migrate",
    checkpoint_interval: Optional[float] = None,
    checkpoint_mode: str = "full",
    job_memory: int = 0,
    adversarial: bool = False,
) -> ChaosReport:
    """One full chaos experiment; see the module docstring.

    ``base`` skips the build-and-warm prefix: pass the
    :class:`~repro.snapshot.Snapshot` from :func:`build_chaos_base`
    (forked internally) or an already-forked cluster from it.  The
    report's ``seed``/``workstations`` then come from the base cluster
    itself, so the caller can't mislabel a run.

    ``policy`` selects the fault-tolerance strategy (``migrate`` /
    ``checkpoint`` / ``hybrid``, see :mod:`repro.checkpoint`).  The
    default ``migrate`` path constructs no checkpoint machinery at all
    and stays byte-identical to a build without it.  ``job_memory``
    sizes each job's address space (hence its checkpoint images).

    ``adversarial=True`` selects the hostile profile: the
    :func:`adversarial_plan` gauntlet (duplicating / reordering /
    corrupting links on top of the builtin faults), modest migration
    and migd admission caps so backpressure actually engages, and the
    suspicion-based failure detector in place of the fixed detection
    delay.

    The fault plan is :meth:`FaultPlan.random` churn at ``mtbf`` with
    ``random_churn``, else the adversarial or builtin gauntlet.
    ``checkpoint_interval`` is the checkpointing policies' period
    (``None``: ``ClusterParams.checkpoint_interval``).
    """
    if base is None:
        cluster = SpriteCluster(
            workstations=workstations, seed=seed, trace=True
        )
        cluster.standard_images()
        service = LoadSharingService(cluster, architecture="centralized")
    else:
        cluster = base.fork() if isinstance(base, Snapshot) else base
        service = cluster.extras["service"]
        seed = cluster.params.seed
        workstations = len(cluster.hosts)
    if adversarial:
        # Engage the admission caps (the cluster's params object is
        # shared by every host, so this configures them all).  Only
        # fill in caps the caller left at the disabled default.
        params = cluster.params
        if params.migration_max_incoming == 0:
            params.migration_max_incoming = 4
        if params.migration_max_outgoing == 0:
            params.migration_max_outgoing = 8
        if params.migd_max_pending == 0:
            params.migd_max_pending = 8
    if random_churn:
        plan = FaultPlan.random(
            cluster.rng, cluster.hosts[1:], duration * 0.8, mtbf=mtbf,
            adversarial=adversarial,
        )
    elif adversarial:
        plan = adversarial_plan(cluster, duration)
    else:
        plan = builtin_plan(cluster, duration)
    injector = FaultInjector(cluster, plan, service=service).start()
    if adversarial:
        injector.attach_detector()

    fault_policy = policy_named(policy)
    checkpoints: Optional[CheckpointService] = None
    if fault_policy.checkpointing:
        checkpoints = CheckpointService(
            cluster, injector=injector,
            interval=checkpoint_interval, mode=checkpoint_mode,
        )
    # The plain job keeps the checkpoint-off trace byte-identical to a
    # build without repro.checkpoint; the resumable variant is needed
    # whenever restores can happen (or images should have a VM payload).
    resumable = fault_policy.checkpointing or job_memory > 0

    # --- workload: jobs launched from the first two hosts, spread out
    # over the run, plus an orchestrator that load-shares them.
    launched: List = []

    def launcher():
        gap = duration * 0.5 / max(jobs, 1)
        for index in range(jobs):
            home = cluster.hosts[index % min(2, len(cluster.hosts))]
            if home.node.up:
                if resumable:
                    pcb, _ctx = home.spawn_process(
                        _chaos_job_resumable, index, job_length, job_memory,
                        name=f"chaos-{index}",
                    )
                else:
                    pcb, _ctx = home.spawn_process(
                        _chaos_job, index, job_length, name=f"chaos-{index}"
                    )
                launched.append(pcb)
                if checkpoints is not None:
                    checkpoints.register(
                        pcb, _chaos_job_resumable,
                        index, job_length, job_memory,
                    )
            yield Sleep(gap)

    def orchestrator():
        """Keep trying to push runnable jobs onto granted idle hosts."""
        selector = service.selector_for(cluster.hosts[0])
        while True:
            yield Sleep(duration / 40.0)
            if not cluster.hosts[0].node.up:
                continue
            movable = [
                pcb for pcb in launched
                if not pcb.task.done
                and pcb.state == ProcState.RUNNING
                and pcb.current in cluster.managers
                and cluster.managers[pcb.current].host.node.up
            ]
            if not movable:
                continue
            granted = yield from selector.request(len(movable))
            for pcb, target in zip(movable, granted):
                try:
                    yield from cluster.managers[pcb.current].migrate(
                        pcb, target, reason="chaos"
                    )
                except Exception:  # noqa: BLE001 - refusals/crashes expected
                    pass

    spawn(cluster.sim, launcher(), name="chaos-launcher", daemon=True)
    if fault_policy.proactive_migration:
        spawn(cluster.sim, orchestrator(), name="chaos-orchestrator",
              daemon=True)

    cluster.run(until=duration)
    # Quiesce: heal the network, reboot the dead, let detection and
    # recovery daemons finish, then audit.
    injector.heal_all()
    drain = (
        injector.detect_delay
        + 3 * cluster.params.availability_period
        + 2 * job_length
    )
    if injector.detector is not None:
        # Suspicion accrual needs up to max_threshold missed beats
        # before it declares, plus one beat to reconcile after the
        # heal — give the monitor time to settle.
        drain += cluster.params.heartbeat_period * (
            cluster.params.suspicion_max_threshold + 2
        )
    cluster.run(until=duration + drain)

    checker = InvariantChecker(cluster, injector)
    violations = checker.check(expected_pids=[pcb.pid for pcb in launched])

    records = cluster.migration_records()
    finished = sum(
        1 for pcb in launched
        if pcb.task.done and isinstance(pcb.task.result, int)
    )
    jobs_ok = sum(
        1 for pcb in launched if pcb.task.done and pcb.task.result == 0
    )
    # Availability/goodput are computed from task results after the run
    # (trace-free arithmetic: they cannot perturb the fingerprint).
    horizon = duration + drain
    ckpt_stats = checkpoints.stats() if checkpoints is not None else {}
    ports = [host.rpc for host in cluster.hosts]
    ports += [sh.rpc for sh in cluster.server_hosts]
    managers = list(cluster.managers.values())
    det = injector.detector
    backpressure = (
        service.migd.refused_busy
        + sum(m.leases.refused_incoming_busy for m in managers)
        + sum(m.refused_outgoing_cap for m in managers)
    )
    return ChaosReport(
        seed=seed,
        workstations=workstations,
        duration=duration,
        jobs=len(launched),
        jobs_finished=finished,
        jobs_lost=len(launched) - finished,
        jobs_ok=jobs_ok,
        migrations=sum(1 for r in records if not r.refused),
        refusals=sum(1 for r in records if r.refused),
        faults=len(injector.log),
        packets_blocked=injector.fabric.blocked,
        packets_dropped=injector.fabric.dropped,
        policy=fault_policy.name,
        checkpoints=ckpt_stats.get("checkpoints", 0),
        restores=ckpt_stats.get("restores", 0),
        torn_images=(
            ckpt_stats.get("torn_writes", 0)
            + ckpt_stats.get("torn_skipped", 0)
        ),
        unrecoverable=ckpt_stats.get("unrecoverable", 0),
        availability=jobs_ok / len(launched) if launched else 0.0,
        goodput=(jobs_ok * job_length / horizon) if horizon > 0 else 0.0,
        packets_duplicated=injector.fabric.duplicated,
        packets_reordered=injector.fabric.reordered,
        packets_corrupted=injector.fabric.corrupted,
        checksum_drops=sum(p.checksum_failures for p in ports),
        duplicates_suppressed=sum(p.duplicates_suppressed for p in ports),
        dedup_replays=sum(p.replays_sent for p in ports),
        double_executions=sum(p.double_executions for p in ports),
        inbox_overflows=cluster.lan.inbox_overflows,
        suspicions_declared=det.declared if det is not None else 0,
        false_suspicions=det.false_suspicions if det is not None else 0,
        reconciles=det.reconciles if det is not None else 0,
        backpressure_refusals=backpressure,
        violations=[str(v) for v in violations],
        fingerprint=trace_fingerprint(cluster.tracer),
        events=[str(event) for event in injector.log],
    )
