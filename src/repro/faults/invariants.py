"""Cluster invariants that must hold no matter what the chaos did.

After any run — scripted plan, random churn, or a hand-driven test —
:class:`InvariantChecker` audits the quiesced cluster:

* **Process conservation**: no pid is RUNNING on two kernels at once;
  every resident process thinks it is where its kernel thinks it is;
  every shadow PCB points at a host that actually runs its process, or
  at one whose latest crash the cluster has not detected yet.
* **Migration ledger**: records have sane timestamps, never migrate a
  process onto the host it left from in the same hop, and the refusal
  flags agree with the per-reason refusal tally.
* **Fault accounting** (with an injector): processes the plan killed
  are exactly the ones missing — nothing vanished without a recorded
  crash, nothing rose from the dead.
* **Transaction hygiene** (quiesced): once in-flight work has drained
  — every lease TTL expired, every recovery and repair daemon done —
  no migration manager may still hold a ticket lease or a reservation,
  no journal may have an open transaction on an up host, and no file
  server may track a migrated-stream reference for a stream its (up)
  client no longer has open.

:meth:`audit_in_flight` is the instantaneous variant the crash matrix
runs *at* a fault boundary: every expected pid must have exactly one
runnable copy cluster-wide right now.  Inactive copies installed under
an unexpired :class:`~repro.migration.TicketLease` are legal and
counted — the caller asserts they drain to zero by quiesce.

Checks return :class:`Violation` values rather than raising, so the
chaos CLI can report all of them; tests use :meth:`assert_clean`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..kernel import ProcState, home_of_pid
from ..migration import refusal_reasons

__all__ = ["InvariantChecker", "Violation"]


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough detail to debug it."""

    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"{self.kind}: {parts}"


class InvariantChecker:
    """Audits a cluster, optionally against a fault injector's log."""

    def __init__(self, cluster, injector=None):
        self.cluster = cluster
        self.injector = injector

    # ------------------------------------------------------------------
    def check(self, expected_pids: Optional[Iterable[int]] = None) -> List[Violation]:
        violations: List[Violation] = []
        violations.extend(self._check_placement())
        violations.extend(self._check_records())
        violations.extend(self._check_leases())
        violations.extend(self._check_journals())
        violations.extend(self._check_stream_refs())
        violations.extend(self._check_exactly_once())
        if expected_pids is not None:
            violations.extend(self._check_conservation(set(expected_pids)))
        return violations

    def assert_clean(self, expected_pids: Optional[Iterable[int]] = None) -> None:
        violations = self.check(expected_pids)
        if violations:
            raise AssertionError(
                "invariant violations:\n"
                + "\n".join(f"  - {v}" for v in violations)
            )

    # ------------------------------------------------------------------
    def _crashed_hosts(self) -> Set[int]:
        if self.injector is None:
            return set()
        return set(self.injector.crashed_hosts)

    def _awaiting_detection(self) -> Set[int]:
        """Hosts whose latest crash the cluster has not detected yet but
        still will: the host is down (suspicion is accruing) or, without
        a failure detector, the fixed detection delay is still running.
        A host that is back up and answering heartbeats has no pending
        detection — the detector declares a fast reboot at once."""
        injector = self.injector
        if injector is None:
            return set()
        crashed_at: Dict[int, float] = {}
        for event in injector.log:
            if event.kind == "host_crash":
                crashed_at[event.detail["address"]] = event.time
            elif event.kind == "crash_detected":
                crashed_at.pop(event.detail["address"], None)
        now = self.cluster.sim.now
        return {
            address for address, when in crashed_at.items()
            if not self.cluster.kernels[address].node.up
            or (injector.detector is None
                and now < when + injector.detect_delay)
        }

    def _checkpointed_pids(self) -> Set[int]:
        """Pids whose state survives in an intact checkpoint image
        (``cluster.checkpoints`` is set by
        :class:`repro.checkpoint.CheckpointService`).  Such a pid is
        accounted state even while no kernel holds a runnable copy —
        the restart manager can bring it back."""
        service = getattr(self.cluster, "checkpoints", None)
        if service is None:
            return set()
        return service.accounted_pids()

    def _check_placement(self) -> List[Violation]:
        violations: List[Violation] = []
        awaiting = self._awaiting_detection()
        running_at: Dict[int, List[int]] = {}
        for address in sorted(self.cluster.kernels):
            kernel = self.cluster.kernels[address]
            for pid, pcb in sorted(kernel.procs.items()):
                if pcb.state == ProcState.RUNNING:
                    running_at.setdefault(pid, []).append(address)
                    if pcb.current != address:
                        violations.append(Violation(
                            "misplaced-process",
                            {"pid": pid, "kernel": address,
                             "claims": pcb.current},
                        ))
        for pid, addresses in sorted(running_at.items()):
            if len(addresses) > 1:
                violations.append(Violation(
                    "duplicated-process", {"pid": pid, "hosts": addresses}
                ))
        for address in sorted(self.cluster.kernels):
            kernel = self.cluster.kernels[address]
            for pid, pcb in sorted(kernel.procs.items()):
                if pcb.state != ProcState.MIGRATED:
                    continue
                # A shadow may dangle only while the crash of its
                # execution host awaits detection; detection reaps it.
                remote = pcb.current
                if remote not in running_at.get(pid, []) and remote not in awaiting:
                    violations.append(Violation(
                        "dangling-shadow",
                        {"pid": pid, "home": address, "remote": remote},
                    ))
        return violations

    def _check_records(self) -> List[Violation]:
        violations: List[Violation] = []
        records = list(self.cluster.migration_records())
        refused_flagged = 0
        for record in records:
            if record.refused:
                refused_flagged += 1
                if "refusal" not in record.detail:
                    violations.append(Violation(
                        "refusal-without-reason",
                        {"pid": record.pid, "source": record.source,
                         "target": record.target},
                    ))
            if record.source == record.target:
                violations.append(Violation(
                    "self-migration",
                    {"pid": record.pid, "host": record.source},
                ))
            if record.ended and record.ended < record.started:
                violations.append(Violation(
                    "record-time-warp",
                    {"pid": record.pid, "started": record.started,
                     "ended": record.ended},
                ))
        tally = sum(refusal_reasons(records).values())
        if tally != refused_flagged:
            violations.append(Violation(
                "refusal-tally-mismatch",
                {"flagged": refused_flagged, "tallied": tally},
            ))
        return violations

    def _check_conservation(self, expected: Set[int]) -> List[Violation]:
        """Every expected pid must be accounted for: still resident,
        exited (zombie/dead entries stay in the table), or recorded
        lost by the fault layer — directly (it was executing on the
        crashing host, or was orphaned/reaped by detection) or
        implicitly (its *home* crashed, which wipes the whole process
        table including exit records)."""
        violations: List[Violation] = []
        accounted: Set[int] = set()
        for kernel in self.cluster.kernels.values():
            accounted.update(kernel.procs.keys())
        crashed = self._crashed_hosts()
        excused: Set[int] = set()
        if self.injector is not None:
            excused |= self.injector.lost_pids()
        excused |= self._checkpointed_pids()
        for pid in sorted(expected - accounted - excused):
            if home_of_pid(pid) in crashed:
                continue
            violations.append(Violation("lost-process", {"pid": pid}))
        return violations

    # ------------------------------------------------------------------
    # Migration-transaction hygiene (quiesced cluster)
    # ------------------------------------------------------------------
    def _check_leases(self) -> List[Violation]:
        """No expired ticket lease may linger, and a manager's memory
        reservation must equal the sum over the leases it still holds —
        a mismatch means an abort path forgot to give bytes back."""
        violations: List[Violation] = []
        now = self.cluster.sim.now
        for address in sorted(self.cluster.managers):
            manager = self.cluster.managers[address]
            if not manager.host.node.up:
                continue
            held = 0
            for lease in manager.leases.held():
                held += lease.reserved_bytes
                if now > lease.expires:
                    violations.append(Violation(
                        "leaked-ticket",
                        {"host": address, "pid": lease.pid,
                         "ticket": lease.ticket_id,
                         "status": lease.status, "expires": lease.expires},
                    ))
            reserved = manager.leases.reserved_bytes
            if reserved != held:
                violations.append(Violation(
                    "leaked-reservation",
                    {"host": address, "reserved": reserved,
                     "held_by_leases": held},
                ))
        return violations

    def _check_journals(self) -> List[Violation]:
        """Every journalled transaction on an up host must eventually
        finish.  A transaction still open past its lease window can no
        longer be legitimately in flight: recovery, the commit resolver
        or the rollback repair task should have closed it."""
        violations: List[Violation] = []
        now = self.cluster.sim.now
        for address in sorted(self.cluster.managers):
            manager = self.cluster.managers[address]
            if not manager.host.node.up:
                continue
            for txn in manager.journal.open_txns():
                if txn.expires and now <= txn.expires:
                    continue  # lease still live: genuinely in flight
                violations.append(Violation(
                    "leaked-journal-txn",
                    {"host": address, "txn": txn.txn_id, "pid": txn.pid,
                     "step": txn.steps[-1] if txn.steps else None,
                     "rollback_pending": txn.rollback_pending},
                ))
        return violations

    def _check_stream_refs(self) -> List[Violation]:
        """Server-side migrated-stream references must be backed by an
        actual open stream on the referenced (up) client — anything else
        is a refcount leaked by a half-done stream hand-off."""
        violations: List[Violation] = []
        hosts = {host.address: host for host in self.cluster.hosts}
        for server_host in self.cluster.server_hosts:
            if not server_host.node.up:
                continue
            for path in sorted(server_host.server.files):
                entry = server_host.server.files[path]
                for stream_id in sorted(entry.stream_refs):
                    for client, count in sorted(
                        entry.stream_refs[stream_id].items()
                    ):
                        if count <= 0:
                            continue
                        host = hosts.get(client)
                        if host is None or not host.node.up:
                            continue  # crashed client: server cleanup pends
                        if stream_id not in host.fs.open_streams:
                            violations.append(Violation(
                                "leaked-stream-ref",
                                {"server": server_host.name, "path": path,
                                 "stream": stream_id, "client": client,
                                 "count": count},
                            ))
        return violations

    def _check_exactly_once(self) -> List[Violation]:
        """No RPC port may ever have executed a non-idempotent handler
        twice for one logical request — at-least-once retries and
        duplicating links must be absorbed by the dedup cache, never by
        the handler.  (``mig.commit`` running twice is how a process
        gets activated on two hosts.)"""
        violations: List[Violation] = []
        ports = [(host.name, host.rpc) for host in self.cluster.hosts]
        ports += [
            (server_host.name, server_host.rpc)
            for server_host in self.cluster.server_hosts
            if hasattr(server_host, "rpc")
        ]
        for name, port in ports:
            if port.double_executions:
                violations.append(Violation(
                    "double-execution",
                    {"host": name, "count": port.double_executions},
                ))
        return violations

    # ------------------------------------------------------------------
    # Instantaneous audit (run at a fault boundary, not at quiesce)
    # ------------------------------------------------------------------
    def audit_in_flight(
        self, expected_pids: Optional[Iterable[int]] = None
    ) -> Tuple[List[Violation], int]:
        """Single-live-copy audit, valid *at any instant*.

        A copy is **runnable** when its kernel's process table holds it
        ``RUNNING`` and the PCB agrees it executes there — during a
        transfer that is the frozen source copy (activation happens only
        inside ``mig.commit``), afterwards the target copy.  Returns the
        violations plus the number of **inactive** copies: installed-
        but-unactivated target copies under unexpired leases, which are
        legal now but must drain to zero by quiesce.

        A pid with *no* runnable copy is excused only when it exited
        (zombie/dead entry or a recorded exit status somewhere), died in
        a recorded host crash, lost its home kernel, or survives as an
        inactive copy awaiting commit resolution.
        """
        now = self.cluster.sim.now
        violations: List[Violation] = []
        runnable_at: Dict[int, List[int]] = {}
        exited: Set[int] = set()
        for address in sorted(self.cluster.kernels):
            kernel = self.cluster.kernels[address]
            for pid, pcb in sorted(kernel.procs.items()):
                if (pcb.state == ProcState.RUNNING
                        and pcb.current == address):
                    runnable_at.setdefault(pid, []).append(address)
                if (pcb.state in (ProcState.ZOMBIE, ProcState.DEAD)
                        or pcb.exit_status is not None):
                    exited.add(pid)
        inactive_pids: Dict[int, List[int]] = {}
        inactive = 0
        for address in sorted(self.cluster.managers):
            manager = self.cluster.managers[address]
            if not manager.host.node.up:
                continue
            for lease in manager.leases.held():
                if lease.status == "installed" and now <= lease.expires:
                    inactive += 1
                    inactive_pids.setdefault(lease.pid, []).append(address)
        if expected_pids is None:
            expected = set(runnable_at) | set(inactive_pids) | exited
        else:
            expected = set(expected_pids)
        crashed = self._crashed_hosts()
        lost = self.injector.lost_pids() if self.injector else set()
        # A checkpointed pid between crash and restore has no runnable
        # copy anywhere, but its intact image is recoverable state.
        lost |= self._checkpointed_pids()
        for pid in sorted(expected):
            copies = runnable_at.get(pid, [])
            if len(copies) > 1:
                violations.append(Violation(
                    "duplicated-runnable", {"pid": pid, "hosts": copies}
                ))
            elif not copies:
                if (pid in exited or pid in lost or pid in inactive_pids
                        or home_of_pid(pid) in crashed):
                    continue
                violations.append(Violation(
                    "no-runnable-copy", {"pid": pid}
                ))
        return violations, inactive
