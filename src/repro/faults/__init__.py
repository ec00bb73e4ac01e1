"""Deterministic fault injection & recovery — the cluster's chaos engine.

The thesis's migration, load-sharing, and FS-recovery protocols are all
*defined* by how they fail: aborted transfers roll back, a dead migd
degrades requests to local execution, file servers rebuild state from
client reopens.  This package makes those failures first-class and
reproducible:

* :mod:`.plan`       — :class:`FaultPlan`/:class:`FaultAction`: what
  breaks, when (scripted or seeded-random).
* :mod:`.fabric`     — :class:`LinkFabric`: partitions, packet loss and
  latency spikes, consulted by the LAN per message.
* :mod:`.injector`   — :class:`FaultInjector`: executes plans, drives
  host crash/reboot, migd and FS-server outages, crash detection.
* :mod:`.detector`   — :class:`FailureDetector`: heartbeat-driven
  suspicion accrual with flap damping and false-suspicion reconcile;
  replaces the fixed detection delay when attached.
* :mod:`.invariants` — :class:`InvariantChecker`: no process lost or
  duplicated, migration ledger consistent, fault accounting balanced.
* :mod:`.chaos`      — :func:`run_chaos`: workload + plan + audit, with
  a trace fingerprint for byte-identical determinism checks
  (``python -m repro chaos``).
* :mod:`.crashmatrix` — :func:`run_matrix`: the exhaustive {source,
  target, home, FS server} x {crash, partition, flaky} x
  txn-step-boundary sweep over the migration transaction
  (``python -m repro chaos --crash-matrix``).

Everything is zero-cost when absent: a cluster with no injector runs
the exact same instruction path as before this package existed.
"""

from .chaos import (
    FAULT_POLICIES,
    ChaosReport,
    adversarial_plan,
    build_chaos_base,
    builtin_plan,
    run_chaos,
    trace_fingerprint,
)
from .crashmatrix import (
    MATRIX_KINDS,
    MATRIX_VICTIMS,
    CellResult,
    MatrixReport,
    build_matrix_base,
    matrix_cells,
    run_cell,
    run_matrix,
)
from .detector import FailureDetector, HostWatch
from .fabric import LinkFabric, LinkState, UnicastVerdict
from .injector import FaultEvent, FaultInjector
from .invariants import InvariantChecker, Violation
from .plan import FAULT_KINDS, FaultAction, FaultPlan

__all__ = [
    "FAULT_KINDS",
    "FAULT_POLICIES",
    "MATRIX_KINDS",
    "MATRIX_VICTIMS",
    "CellResult",
    "ChaosReport",
    "FailureDetector",
    "FaultAction",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "HostWatch",
    "InvariantChecker",
    "LinkFabric",
    "LinkState",
    "MatrixReport",
    "UnicastVerdict",
    "Violation",
    "adversarial_plan",
    "build_chaos_base",
    "build_matrix_base",
    "builtin_plan",
    "matrix_cells",
    "run_cell",
    "run_chaos",
    "run_matrix",
    "trace_fingerprint",
]
