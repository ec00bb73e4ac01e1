"""Crash-consistent migration transactions (the Sprite commit point, §4.5).

The thesis promises that a migration either completes or leaves the
process running untouched at the source.  This module makes that
promise explicit: every migration is a :class:`MigrationTxn` walked down
the ``TXN_STEPS`` ladder, with a *single commit point* — the source's
``mig.commit`` RPC.  The steps journaled so far are the one record of
how far a transaction got.  Before
the commit the target holds the process **inactive** on its
:class:`~repro.migration.lease.TicketLease` (crash anywhere → the target
reaps the inactive copy when the lease expires, the source resumes or
dies with its own copy; never two runnable copies).  After the commit
the target's copy is the process (crash at the source → its shadow and
home-update duties are reconstructed from the journal on reboot).

Each txn step is idempotent and journaled in the per-host
:class:`MigrationJournal`.  The journal models Sprite writing its
migration metadata through the file system: it survives ``host.crash``
(unlike the kernel's process table) and is replayed by
``MigrationManager.on_reboot`` — in-flight transactions replay their
undo log (stream references pulled back or closed, the target's
inactive copy released), committed-but-unfinished ones re-drive the
post-commit duties (home shadow, ``mig.update_location``, close).

The journal also exposes the per-step hook the crash-matrix harness
(:mod:`repro.faults.crashmatrix`) uses to inject a fault at *every*
step boundary of the protocol.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "TXN_STEPS",
    "UndoEntry",
    "MigrationTxn",
    "MigrationJournal",
]


#: Every journaled step boundary, in protocol order.  The crash matrix
#: iterates exactly this tuple: {source, target, home, FS server} x
#: {crash, partition, flaky} x each boundary below.
TXN_STEPS = (
    "negotiated",        # mig.negotiate accepted, ticket issued
    "frozen",            # process parked at its safe point
    "vm_sent",           # VM policy's frozen-phase transfer done
    "state_packed",      # machine-independent kernel state packaged
    "streams_exported",  # every open stream moved to the target's name
    "shipped",           # mig.install acked: inactive copy at target
    "commit_sent",       # commit point crossed from the source's view
    "committed",         # target acked activation
    "detached",          # source dropped its copy / became the shadow
    "home_updated",      # third-party home points at the target
    "closed",            # target dropped its lease record: txn complete
)

_STEP_INDEX = {name: i for i, name in enumerate(TXN_STEPS)}


@dataclass
class UndoEntry:
    """One compensating action recorded before its forward action.

    ``kind`` is ``"stream"`` (a stream reference moved to the target;
    undone by :meth:`repro.fs.FsClient.undo_export`) or ``"ticket"``
    (a lease issued at the target; undone by ``mig.release``).
    """

    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Set once the compensating action has been applied (idempotence).
    undone: bool = False


@dataclass
class MigrationTxn:
    """One migration's transactional state, owned by the source."""

    txn_id: str
    pid: int
    source: int
    target: int
    home: int
    reason: str
    pcb: Any = None
    ticket_id: int = 0
    expires: float = 0.0
    #: Steps journaled so far, in order (idempotent: logged once) — the
    #: only record of how far the transaction got.
    steps: List[str] = field(default_factory=list)
    undo: List[UndoEntry] = field(default_factory=list)
    #: True once nothing remains to do or undo; only then may the
    #: journal forget the transaction ("no leaked journal entries").
    finished: bool = False
    #: An abort exhausted its rollback retries; a background repair
    #: task owns the remaining undo entries.
    rollback_pending: bool = False
    #: The abort path has started (counted once in ``journal.aborted``).
    aborted: bool = False
    # -- volatile state of the task driving the transaction ------------
    #: The source's crash epoch when the driving task took ownership; a
    #: task whose epoch no longer matches must stop touching the txn.
    epoch: int = 0
    #: Telemetry for the migration (``MigrationRecord``) and its
    #: ``mig.migrate`` root span (``None`` whenever spans are disabled).
    record: Any = None
    root: Any = None
    #: Reboot-time recovery is driving: the source's process table and
    #: the process itself died with the crash.
    recovering: bool = False

    # ------------------------------------------------------------------
    def did(self, name: str) -> bool:
        return name in self.steps

    def push_undo(self, kind: str, **detail: Any) -> UndoEntry:
        entry = UndoEntry(kind=kind, detail=detail)
        self.undo.append(entry)
        return entry

    def pending_undo(self) -> List[UndoEntry]:
        """Compensating actions not yet applied, newest first."""
        return [e for e in reversed(self.undo) if not e.undone]

    @property
    def in_doubt(self) -> bool:
        """The commit may have been delivered but was never acked."""
        return self.did("commit_sent") and not self.did("committed")


class MigrationJournal:
    """Per-host migration write-ahead journal.

    Modeled as *persistent* storage: the object lives on the (never
    reconstructed) :class:`~repro.migration.MigrationManager`, so —
    unlike the kernel's process table — it survives ``host.crash`` and
    is what reboot-time recovery replays.  It holds the open
    transactions, each carrying its own journaled steps and undo log.
    """

    def __init__(self) -> None:
        #: Open (not yet finished) transactions by id.
        self.txns: Dict[str, MigrationTxn] = {}
        self._seq = 0
        #: Crash-matrix hook: called as ``on_step(txn, step)`` right
        #: after each step is journaled, *at that simulated instant*.
        self.on_step: Optional[Callable[[MigrationTxn, str], None]] = None
        #: Monotonic telemetry (never reset; survives crashes).
        self.begun = 0
        self.committed = 0
        self.aborted = 0
        self.recovered = 0

    # ------------------------------------------------------------------
    def begin(
        self, pcb: Any, source: int, target: int, reason: str
    ) -> MigrationTxn:
        self._seq += 1
        txn = MigrationTxn(
            txn_id=f"{source}:{pcb.pid}:{self._seq}",
            pid=pcb.pid,
            source=source,
            target=target,
            home=pcb.home,
            reason=reason,
            pcb=pcb,
        )
        self.begun += 1
        self.txns[txn.txn_id] = txn
        return txn

    def log(self, txn: MigrationTxn, step: str) -> None:
        """Journal one step boundary (idempotent: re-logging is a no-op)."""
        if step in txn.steps:
            return
        if step not in _STEP_INDEX:
            raise ValueError(f"unknown txn step {step!r}")
        txn.steps.append(step)
        if self.on_step is not None:
            self.on_step(txn, step)

    def finish(self, txn: MigrationTxn) -> None:
        """Nothing remains to do or undo: forget the transaction."""
        txn.finished = True
        self.txns.pop(txn.txn_id, None)

    def reopen(self, txn: MigrationTxn, epoch: int) -> MigrationTxn:
        """Recovery's handle on a transaction a crash left open.

        A fresh object over the same journaled steps and undo log: a
        pre-crash driving task may still hold the old one, and its stale
        ``epoch`` is what makes that task abandon instead of mistaking
        itself for the owner once the host is back up.
        """
        txn = dataclasses.replace(txn, epoch=epoch, root=None, recovering=True)
        self.txns[txn.txn_id] = txn
        return txn

    def open_txns(self) -> List[MigrationTxn]:
        """Transactions with work left to do or undo (recovery targets)."""
        return [
            self.txns[key] for key in sorted(self.txns)
            if not self.txns[key].finished
        ]
