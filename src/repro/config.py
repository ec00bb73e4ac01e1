"""Cluster-wide parameters: fourteen settings and the calibration behind them.

One :class:`ClusterParams` instance flows to every subsystem.  Its
*fields* are the axes something in this repository actually varies: the
network (latency, bandwidth, shared or switched medium, inbox
capacity), the RPC retry schedule, the file-system block size and
server cache hit rate, the migration protocol version, the
backpressure caps, and the seed.  S1 (``bench_network_sweep``) sweeps
the bandwidth; the fault benchmarks and tests move the rest.

Everything else is *calibration*: class-level constants fixed at the
operating point of the thesis's evaluation (Sun-3-class workstations on
10 Mb/s Ethernet), readable as ``params.page_size`` but not settable —
the constructor and :meth:`ClusterParams.clone` reject them.

* null kernel-to-kernel RPC round trip ≈ 2 ms (thesis: 1.9 ms; the
  model's own figure is measured by ``validation.measure_calibration``),
* bulk network throughput ≈ 820 KB/s,
* 8 KB virtual-memory pages, 4 KB file-system blocks,
* local trivial kernel call ≈ 0.1 ms.

Absolute numbers in this reproduction are *model* numbers; what must
match the paper is their relationships (see EXPERIMENTS.md), which is
why the calibration moves together or not at all.  ``python -m repro
info`` prints both groups with units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, ClassVar

KB = 1024
MB = 1024 * 1024
MS = 1e-3
US = 1e-6

__all__ = ["ClusterParams", "KB", "MB", "MS", "US"]


@dataclass
class ClusterParams:
    """The simulated Sprite cluster: 14 settable fields, the rest constants.

    A plain annotation is a field — a test, benchmark or experiment
    sets it.  A ``ClassVar`` is calibration: read it as
    ``params.<name>``, never assign it (an assignment would shadow the
    constant for that one instance; ``tests/test_config_knobs.py``
    forbids it).
    """

    # --- network ------------------------------------------------------
    #: One-way wire/controller latency per message (seconds).
    net_latency: float = 0.15 * MS
    #: Effective payload bandwidth of the shared Ethernet (bytes/second).
    net_bandwidth: float = 820 * KB
    #: Whether concurrent transfers contend for the shared medium.
    net_shared_medium: bool = True

    # --- RPC ----------------------------------------------------------
    #: CPU consumed on each end per RPC (marshalling, kernel dispatch).
    rpc_cpu_overhead: ClassVar[float] = 0.7 * MS
    #: Client-side timeout before an RPC is considered lost.
    rpc_timeout: float = 5.0
    #: Retries before giving up on an unreachable host.
    rpc_retries: int = 2
    #: Retry backoff: the first retry waits ``rpc_backoff_base`` seconds,
    #: doubling per attempt up to ``rpc_backoff_cap``, each delay scaled
    #: by a deterministic jitter factor in [1-j, 1+j] so callers that
    #: lost the same host do not retry in lockstep.
    rpc_backoff_base: ClassVar[float] = 0.2
    rpc_backoff_cap: ClassVar[float] = 2.0
    rpc_backoff_jitter: float = 0.25
    #: Server-side exactly-once window: completed requests remembered
    #: per port so a duplicate (retry or duplicating link) replays the
    #: recorded reply instead of re-executing the handler.  Sized well
    #: above the number of requests a client can have outstanding
    #: inside one retry window.
    rpc_dedup_cache: ClassVar[int] = 512
    #: Per-node inbox capacity in packets; ``0`` means unbounded.  A
    #: full inbox is a *counted* drop (the sender discovers it by
    #: timeout and backs off), never an exception.
    net_inbox_capacity: int = 0

    # --- CPU / kernel ---------------------------------------------------
    #: Scheduler quantum (seconds).
    cpu_quantum: ClassVar[float] = 10 * MS
    #: CPU cost of a trivial local kernel call (e.g. getpid).
    kernel_call_cpu: ClassVar[float] = 0.1 * MS
    #: CPU cost of fork bookkeeping (excluding VM copy charges).
    fork_cpu: ClassVar[float] = 2.0 * MS
    #: CPU cost of exec bookkeeping (excluding image load).
    exec_cpu: ClassVar[float] = 3.0 * MS
    #: Load-average sampling period and decay constant (seconds).
    load_sample_period: ClassVar[float] = 1.0
    load_decay: ClassVar[float] = 60.0

    # --- memory ---------------------------------------------------------
    #: Virtual-memory page size (bytes).  Sun-3 Sprite used 8 KB pages.
    page_size: ClassVar[int] = 8 * KB
    #: CPU cost to prepare/install one page during a transfer.
    page_handling_cpu: ClassVar[float] = 0.1 * MS

    # --- file system ----------------------------------------------------
    #: File-system block size (bytes).
    fs_block_size: int = 4 * KB
    #: Server CPU per open/close/lookup RPC beyond the generic RPC cost.
    fs_name_lookup_cpu: ClassVar[float] = 1.2 * MS
    #: Server CPU per block read/write it serves.
    fs_block_cpu: ClassVar[float] = 0.25 * MS
    #: Client CPU per block moved through its own cache.
    client_block_cpu: ClassVar[float] = 0.1 * MS
    #: Server disk throughput (bytes/second) and per-op latency.
    disk_bandwidth: ClassVar[float] = 1.0 * MB
    disk_latency: ClassVar[float] = 15.0 * MS
    #: Fraction of reads absorbed by the server's own block cache.
    server_cache_hit_rate: float = 0.8
    #: Client cache capacity in blocks and the delayed-write-back period
    #: (Sprite wrote dirty blocks back after 30 seconds).
    client_cache_blocks: ClassVar[int] = 4096
    writeback_period: ClassVar[float] = 30.0

    # --- migration ------------------------------------------------------
    #: Kernel CPU to package/install the process control block and other
    #: non-VM, non-file state at each end of a migration; the checkpoint
    #: daemon and restart charge the same for the same work.
    migration_state_cpu: ClassVar[float] = 25.0 * MS
    #: Bytes of machine-independent process state shipped per migration.
    migration_state_bytes: ClassVar[int] = 4 * KB
    #: Extra state bytes and CPU per open stream transferred.
    stream_transfer_bytes: ClassVar[int] = 512
    stream_transfer_cpu: ClassVar[float] = 2.0 * MS
    #: Protocol version advertised by each kernel; mismatched kernels
    #: refuse to migrate (thesis §4.5).
    migration_version: int = 9
    #: Lease on the inactive copy a target installs before the commit
    #: point: if no ``mig.commit`` arrives within this many seconds of
    #: negotiation the target reaps the copy and reclaims its memory.
    migration_ticket_ttl: ClassVar[float] = 30.0
    #: Attempts per compensating action when an aborting migration
    #: replays its undo log (each retry backed off with the jittered
    #: RPC schedule); exhausting them hands the remainder to a
    #: background repair task and bumps ``rollback_incomplete``.
    migration_rollback_retries: ClassVar[int] = 4

    # --- checkpointing ----------------------------------------------------
    #: Period between checkpoints of a registered process (seconds of
    #: sim time) unless ``CheckpointService(interval=)`` names another.
    checkpoint_interval: ClassVar[float] = 60.0
    #: Image trailer: digest + header bytes appended to every image so
    #: a torn write is detectable (and so no image write is ever empty).
    checkpoint_digest_bytes: ClassVar[int] = 64
    #: Intact image generations kept per process; older ones are
    #: dropped so checkpoint storage is bounded.
    checkpoint_generations: ClassVar[int] = 2

    # --- load sharing -----------------------------------------------------
    #: A host counts as idle when its load average is below this and no
    #: user input arrived within ``idle_input_threshold`` seconds.
    idle_load_threshold: ClassVar[float] = 0.3
    idle_input_threshold: ClassVar[float] = 30.0
    #: How often hosts re-evaluate/announce their availability.
    availability_period: ClassVar[float] = 5.0
    #: Pause before a reclaimed host's foreign processes must be gone.
    eviction_grace: ClassVar[float] = 1.0

    # --- backpressure -----------------------------------------------------
    #: Target-side cap on concurrent incoming migration leases; beyond
    #: it ``mig.negotiate`` answers :class:`~repro.net.RetryLaterError`
    #: (backpressure, distinct from refusal or death).  ``0`` = no cap.
    migration_max_incoming: int = 0
    #: Source-side cap on concurrently *driving* outbound migrations;
    #: beyond it ``migrate()`` refuses immediately with a counted
    #: "source busy" refusal instead of piling onto the network. ``0``
    #: = no cap.
    migration_max_outgoing: int = 0
    #: migd admission control: selection requests queued beyond this
    #: are answered "busy" without running selection, and the client
    #: degrades to local execution.  ``0`` = no cap.
    migd_max_pending: int = 0

    # --- failure detection (suspicion-based, repro.faults.detector) --------
    #: Heartbeat sampling period of the accrual failure detector.
    heartbeat_period: ClassVar[float] = 2.0
    #: Consecutive missed heartbeats before a host is declared dead.
    suspicion_threshold: ClassVar[int] = 3
    #: Extra misses required per recent flap (damping), and the cap on
    #: the damped threshold.
    suspicion_flap_penalty: ClassVar[int] = 2
    suspicion_max_threshold: ClassVar[int] = 8

    # --- faults -----------------------------------------------------------
    #: How long after a host crash the rest of the cluster acts on it
    #: (peer kernels reap dependents, file servers drop client state,
    #: migd marks the host unavailable).  Models the detection lag of
    #: Sprite's recovery machinery; ``FaultInjector(detect_delay=)``
    #: overrides it for one injector.
    crash_detect_delay: ClassVar[float] = 10.0
    #: Retry interval for the remote-exit notification to an
    #: unreachable home kernel (Sprite blocks such RPCs until the peer
    #: recovers; we poll at this period instead).
    exit_notify_retry: ClassVar[float] = 2.0

    # --- bookkeeping ------------------------------------------------------
    seed: int = 0

    def clone(self, **overrides: Any) -> "ClusterParams":
        """Return a copy with some fields replaced."""
        return replace(self, **overrides)

    def pages(self, nbytes: int) -> int:
        """Number of VM pages covering ``nbytes``."""
        return max(0, -(-int(nbytes) // self.page_size))

    def blocks(self, nbytes: int) -> int:
        """Number of FS blocks covering ``nbytes``."""
        return max(0, -(-int(nbytes) // self.fs_block_size))
