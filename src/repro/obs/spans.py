"""The span-name catalogue: every span the library emits, named once.

A span is a named interval of simulated time with an optional parent
link and free-form attributes (:class:`repro.sim.trace.Span`).  Spans
are kept by the cluster's one :class:`~repro.sim.trace.Tracer`, next
to its flat records; components call ``tracer.start_span`` /
``tracer.record_span`` behind an ``if tracer.spans_enabled:`` guard.
This module holds only the names they pass.
"""

__all__ = [
    "SPAN_CATALOGUE",
    "MIG_MIGRATE",
    "MIG_NEGOTIATE",
    "MIG_VM_PRE",
    "MIG_WAIT_SAFE_POINT",
    "MIG_FREEZE",
    "MIG_COMMIT",
    "MIG_VM_TRANSFER",
    "MIG_STATE_PACK",
    "MIG_STREAMS",
    "MIG_INSTALL",
    "MIG_COMMIT_RPC",
    "MIG_UPDATE_HOME",
    "EVICT_RECLAIM",
    "SELECT_REQUEST",
    "KERNEL_FORWARD",
    "RPC_CALL",
    "RPC_SERVE",
    "FAULT_OUTAGE",
    "FAULT_SUSPECT",
    "CKPT_CHECKPOINT",
    "CKPT_WRITE",
    "CKPT_RESTORE",
]

# ----------------------------------------------------------------------
# Span-name catalogue
# ----------------------------------------------------------------------
# Every span the library emits is named here, once.  Downstream
# analysis — the per-migration phase timings and critical-path
# attribution in :mod:`.critpath` — keys on these strings, so a
# silently drifting phase name would corrupt attribution without
# failing any single-layer test.  The ``obs-span-catalogue`` lint rule
# (``python -m repro lint``) requires span names at
# ``Tracer.start_span`` / ``Tracer.record_span`` call sites to resolve to
# a member of :data:`SPAN_CATALOGUE`.

#: Migration lifecycle root and its contiguous phase children.
MIG_MIGRATE = "mig.migrate"
MIG_NEGOTIATE = "mig.negotiate"
MIG_VM_PRE = "mig.vm_pre"
MIG_WAIT_SAFE_POINT = "mig.wait_safe_point"
MIG_FREEZE = "mig.freeze"
MIG_COMMIT = "mig.commit"

#: Transfer sub-steps (siblings of the phases, parented on the root).
MIG_VM_TRANSFER = "mig.vm_transfer"
MIG_STATE_PACK = "mig.state_pack"
MIG_STREAMS = "mig.streams"
MIG_INSTALL = "mig.install"
MIG_COMMIT_RPC = "mig.commit_rpc"
MIG_UPDATE_HOME = "mig.update_home"

#: Other instrumented subsystems.
EVICT_RECLAIM = "evict.reclaim"
SELECT_REQUEST = "select.request"
KERNEL_FORWARD = "kernel.forward"
RPC_CALL = "rpc.call"
RPC_SERVE = "rpc.serve"
FAULT_OUTAGE = "fault.outage"
#: Suspicion interval of the accrual failure detector: opens when a
#: host is declared dead, closes when the host reconciles (reappears).
FAULT_SUSPECT = "fault.suspect"

#: Checkpoint/restart lifecycle (``repro.checkpoint``): one checkpoint
#: of one process (root), the backing-file image write inside it, and
#: a crash-triggered restore on a surviving host.
CKPT_CHECKPOINT = "ckpt.checkpoint"
CKPT_WRITE = "ckpt.write"
CKPT_RESTORE = "ckpt.restore"

#: The registered span names; membership is lint-enforced at emit sites.
SPAN_CATALOGUE = frozenset({
    MIG_MIGRATE,
    MIG_NEGOTIATE,
    MIG_VM_PRE,
    MIG_WAIT_SAFE_POINT,
    MIG_FREEZE,
    MIG_COMMIT,
    MIG_VM_TRANSFER,
    MIG_STATE_PACK,
    MIG_STREAMS,
    MIG_INSTALL,
    MIG_COMMIT_RPC,
    MIG_UPDATE_HOME,
    EVICT_RECLAIM,
    SELECT_REQUEST,
    KERNEL_FORWARD,
    RPC_CALL,
    RPC_SERVE,
    FAULT_OUTAGE,
    FAULT_SUSPECT,
    CKPT_CHECKPOINT,
    CKPT_WRITE,
    CKPT_RESTORE,
})
