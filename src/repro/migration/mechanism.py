"""The process-migration mechanism (thesis ch. 4), source side.

One :class:`MigrationManager` per host.  A migration is one transaction
(:mod:`repro.migration.txn`) walked down the ``TXN_STEPS`` ladder by a
single driver, :meth:`MigrationManager._drive`, with a *single commit
point* and an undo log:

1. **Negotiate** (``negotiated``) with the target kernel: migration
   *version numbers* must match (§4.5) and the target's acceptance
   policy must agree.  Acceptance issues a
   :class:`~repro.migration.lease.TicketLease` — the target reserves
   guest memory under it and reaps everything if no commit arrives
   before the lease expires (:mod:`repro.migration.lease`, the target
   side).  The source keeps its side of the same facts on the
   :class:`~repro.migration.txn.MigrationTxn`: one record per side.
2. **Freeze** (``frozen``) the process at a safe point (between compute
   quanta or at kernel-call boundaries; in-flight kernel calls drain
   first).
3. **Transfer virtual memory** (``vm_sent``) per the configured policy
   (:mod:`repro.migration.vm`).
4. **Package and ship kernel state** (``state_packed``,
   ``streams_exported``, ``shipped``): the machine-independent PCB, then
   each open stream via the file system's export/import protocol (each
   export preceded by an intent entry in the undo log).  ``mig.install``
   leaves the copy **inactive** at the target, held on its
   ``TicketLease`` (status ``installed``) outside the process table.
5. **Commit** (``commit_sent``, ``committed``): the source's
   ``mig.commit`` RPC is the commit point.  Before it the source's copy
   is the process: every failure leaves through one exit,
   :meth:`MigrationManager._fail`, which replays the undo log and lets
   the process resume at the source, unharmed.  After it the target's
   copy is the process, and the source owes three idempotent duties
   (``detached``, ``home_updated``, ``closed``;
   :meth:`MigrationManager._post_commit`) that reboot-time journal
   recovery re-enters at the first one the journal has not recorded.

The three public entry points differ only in who parks the process and
what moves: :meth:`~MigrationManager.migrate` is driven from outside the
process and must park it, :meth:`~MigrationManager.migrate_self` and
:meth:`~MigrationManager.migrate_for_exec` run in the process's own task
(already at a safe point), and exec-time migration skips step 3 entirely
— the address space is about to be replaced — which is why Sprite
migrates at exec whenever it can.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Union

from ..fs.errors import FsError
from ..kernel import ExitStatus, Host, MigrationTicket, Pcb, ProcState, signals
from ..net import Reply, RetryLaterError, RpcError
from ..obs.spans import (
    MIG_COMMIT,
    MIG_COMMIT_RPC,
    MIG_FREEZE,
    MIG_INSTALL,
    MIG_MIGRATE,
    MIG_NEGOTIATE,
    MIG_STATE_PACK,
    MIG_STREAMS,
    MIG_VM_PRE,
    MIG_VM_TRANSFER,
    MIG_WAIT_SAFE_POINT,
)
from ..sim import Effect, SimEvent, Sleep, Span, first
from .lease import LeaseService
from .packaging import state_bytes, stream_bytes, stream_manifest
from .recovery import MigrationAbandoned, MigrationRefused, TxnResolver
from .txn import MigrationTxn
from .vm import FlushToServer, VmOutcome, VmPolicy, make_policy

__all__ = [
    "MigrationManager",
    "MigrationRecord",
    "MigrationRefused",
    "MigrationAbandoned",
]


@dataclass
class MigrationRecord:
    """Telemetry for one completed (or refused) migration."""

    pid: int
    name: str
    source: int
    target: int
    reason: str
    policy: str
    started: float
    ended: float = 0.0
    freeze_started: float = 0.0
    freeze_ended: float = 0.0
    #: When the commit point was crossed (0 for migrations that aborted
    #: before reaching it).
    commit_started: float = 0.0
    vm: Optional[VmOutcome] = None
    streams_moved: int = 0
    stream_bytes: int = 0
    state_bytes: int = 0
    refused: bool = False
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return self.ended - self.started

    @property
    def freeze_time(self) -> float:
        return self.freeze_ended - self.freeze_started

    @property
    def commit_time(self) -> float:
        """Frozen time spent past the commit point (post-commit duties)."""
        if not self.commit_started:
            return 0.0
        return self.freeze_ended - self.commit_started


#: Signature of a target-side acceptance policy (load sharing installs
#: one that refuses when the host is no longer idle).
AcceptHook = Callable[[Dict[str, Any]], bool]


class MigrationManager(TxnResolver):
    """Per-host migration engine: the source-side step driver (abort,
    post-commit duties and recovery come from :class:`TxnResolver`) plus
    the home-side and residual-dependency services.  The target-side
    services live in :attr:`leases`."""

    def __init__(
        self,
        host: Host,
        managers: Dict[int, "MigrationManager"],
        policy: Union[str, VmPolicy, None] = None,
    ):
        super().__init__(host)
        self.kernel.migration = self
        if policy is None:
            policy = FlushToServer()
        elif isinstance(policy, str):
            policy = make_policy(policy)
        self.policy: VmPolicy = policy
        self.accept_hook: Optional[AcceptHook] = None
        #: Every finished migration this host drove, in completion
        #: order; ``ClusterObservability.registry`` folds its ``mig.*``
        #: metrics from this list when read.
        self.records: List[MigrationRecord] = []
        #: Overload backpressure: in-flight outgoing migrations (capped
        #: by ``params.migration_max_outgoing`` when > 0) and how often
        #: the cap refused one.
        self.outgoing_in_flight = 0
        self.refused_outgoing_cap = 0
        #: Evictions that failed (their refusal is swallowed so one bad
        #: victim cannot strand the others on a reclaimed host).
        self.eviction_failures = 0
        self._managers = managers
        managers[host.address] = self
        #: Target side: lease registry and the ``mig.*`` lease services.
        self.leases = LeaseService(self)
        self.host.rpc.register("mig.update_location", self._rpc_update_location)
        self.host.rpc.register("mig.cor_fetch", self._rpc_cor_fetch,
                               idempotent=True)

    # ------------------------------------------------------------------
    @property
    def lan(self):
        return self.host.lan

    def on_crash(self) -> None:
        """Volatile migration state dies with the host: every driving
        task's claim on its transaction, and the lease registry."""
        super().on_crash()
        self.leases.on_crash()

    def remote_page_install(self, target: int, nbytes: int) -> Generator[Effect, None, None]:
        """Charge the target's CPU for receiving/installing pages.

        Wire time is charged separately by the caller; this models the
        destination kernel's copy/map work during a VM transfer.
        """
        peer = self._managers[target]
        yield from peer.host.cpu.consume(
            self.params.page_handling_cpu * self.params.pages(nbytes)
        )

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def migrate(
        self, pcb: Pcb, target: int, reason: str = "manual"
    ) -> Generator[Effect, None, MigrationRecord]:
        """Migrate a (possibly running) process; called from any task
        on the process's current host — eviction daemons, migd, tests."""
        return (yield from self._drive(pcb, target, reason, park=True))

    def migrate_self(
        self, pcb: Pcb, target: int
    ) -> Generator[Effect, None, MigrationRecord]:
        """Migration executed by the process's own task (the migrate
        kernel call): it is already at a safe point, so the whole
        transfer is one freeze."""
        return (yield from self._drive(pcb, target, "self", park=False))

    def migrate_for_exec(
        self, pcb: Pcb, target: int, arg_bytes: int = 2048
    ) -> Generator[Effect, None, MigrationRecord]:
        """Exec-time migration: no VM moves; args/env ride with the state."""
        return (yield from self._drive(
            pcb, target, "exec", park=False, skip_vm=True,
            extra_bytes=arg_bytes,
        ))

    def evict_all_foreign(self) -> Generator[Effect, None, List[MigrationRecord]]:
        """Send every foreign process home (user reclaimed the host).

        Each eviction is its own transaction; one refused victim (home
        down, transfer aborted) must not strand the remaining guests,
        so refusals are counted and skipped rather than propagated.
        """
        victims = self.kernel.foreign_pcbs()
        records = []
        failures: List[str] = []
        for pcb in victims:
            try:
                record = yield from self.migrate(pcb, pcb.home, reason="eviction")
            except MigrationAbandoned:
                raise
            except MigrationRefused as err:
                self.eviction_failures += 1
                failures.append(f"pid {pcb.pid}: {err}")
                self._trace("eviction-failed", pid=pcb.pid, why=str(err))
                continue
            records.append(record)
        if failures:
            # Surface the failure only after every victim had its try,
            # so the eviction daemon counts it and retries next period.
            raise MigrationRefused(
                f"{len(failures)} eviction(s) failed: " + "; ".join(failures)
            )
        return records

    # ------------------------------------------------------------------
    # The driver: one walk down the TXN_STEPS ladder
    # ------------------------------------------------------------------
    def _drive(
        self,
        pcb: Pcb,
        target: int,
        reason: str,
        park: bool,
        skip_vm: bool = False,
        extra_bytes: int = 0,
    ) -> Generator[Effect, None, MigrationRecord]:
        """Run one migration transaction from negotiation to lease close.

        ``park``: the process runs in another task, so the transfer is
        subject to outgoing admission control, pre-copies while the
        process still runs, and must park it at a safe point; otherwise
        the caller *is* the process, already at one.  ``skip_vm`` (exec)
        discards the address space instead of moving it and ships
        ``extra_bytes`` of arguments with the state.
        """
        self._check_eligible(pcb, target)
        record = MigrationRecord(
            pid=pcb.pid,
            name=pcb.name,
            source=self.address,
            target=target,
            reason=reason,
            policy=self.policy.name,
            started=self.sim.now,
        )
        if skip_vm:
            record.detail["arg_bytes"] = extra_bytes
        root = self._root_span(record)
        cap = self.params.migration_max_outgoing
        if park and cap > 0 and self.outgoing_in_flight >= cap:
            # Source-side admission control: too many transfers already
            # in flight.  Refuse locally (the process keeps running
            # here) with a reason ``refusal_reasons`` can aggregate.
            self.refused_outgoing_cap += 1
            self._refuse(
                record,
                root,
                "source at outgoing-migration cap",
                f"host {self.host.name} already has "
                f"{self.outgoing_in_flight} migration(s) in flight",
            )
        txn = self.journal.begin(pcb, self.address, target, reason)
        txn.epoch, txn.record, txn.root = self.crash_epoch, record, root
        ticket: Optional[MigrationTicket] = None
        if park:
            self.outgoing_in_flight += 1
        try:
            yield from self._negotiate(txn)
            self._span(txn, MIG_NEGOTIATE, record.started)
            if park:
                ticket = yield from self._park(txn)
            else:
                record.freeze_started = self.sim.now
            self._journal_step(txn, "frozen")
            if skip_vm:
                yield from self._discard_address_space(txn)
            try:
                yield from self._ship(txn, skip_vm, extra_bytes)
                yield from self._commit(txn)
            finally:
                # Whatever happened, the process must not stay frozen: on
                # an abort it resumes right here on the source.
                record.freeze_ended = self.sim.now
                if ticket is not None:
                    pcb.migration_ticket = None
                    if not ticket.resume.fired:
                        ticket.resume.trigger()
                self._emit_freeze_phases(txn)
            record.ended = self.sim.now
            self.records.append(record)
            if root is not None:
                root.finish(record.ended, streams=record.streams_moved)
            return record
        except MigrationAbandoned:
            if root is not None:
                root.annotate(abandoned=True).finish(self.sim.now)
            raise
        finally:
            if park:
                self.outgoing_in_flight -= 1

    def _check_eligible(self, pcb: Pcb, target: int) -> None:
        if pcb.vm.shared_writable:
            raise MigrationRefused(
                f"pid {pcb.pid} uses shared writable memory (not migratable)"
            )
        if pcb.state != ProcState.RUNNING or pcb.current != self.address:
            raise MigrationRefused(
                f"pid {pcb.pid} is not resident on {self.host.name}"
            )
        if pcb.checkpoint_lock:
            raise MigrationRefused(
                f"pid {pcb.pid} is being checkpointed (image in progress)"
            )
        if target == self.address:
            raise MigrationRefused("source and target are the same host")

    # ------------------------------------------------------------------
    # Span plumbing.  ``txn.root`` is None whenever spans are disabled,
    # so every downstream site is a single ``is not None`` test.
    # ------------------------------------------------------------------
    def _root_span(self, record: MigrationRecord) -> Optional[Span]:
        """Open the ``mig.migrate`` root span for one migration."""
        tracer = self.host.tracer
        if not tracer.spans_enabled:
            return None
        return tracer.start_span(
            MIG_MIGRATE,
            f"mig:{self.host.name}",
            t=record.started,
            pid=record.pid,
            src=record.source,
            dst=record.target,
            reason=record.reason,
        )

    def _span(
        self, txn: MigrationTxn, name: str, start: float,
        end: Optional[float] = None, **attrs: Any,
    ) -> float:
        """Record one lifecycle phase or transfer sub-step as a child of
        the root span; ``end`` defaults to now and is returned.

        Spans are emitted with explicit boundaries, each starting where
        the previous one ended, so consecutive phases are contiguous:
        their durations sum exactly to the root's extent
        (``MigrationRecord.total_time``).
        """
        if end is None:
            end = self.sim.now
        root = txn.root
        if root is not None:
            self.host.tracer.record_span(name, root.source, start, end,
                                         parent=root, **attrs)
        return end

    def _emit_freeze_phases(self, txn: MigrationTxn) -> None:
        """Split the frozen interval at the commit point.

        ``mig.freeze`` covers park -> commit point, ``mig.commit`` the
        post-commit duties (detach, home update, lease close); aborts
        never cross the commit point, so their whole frozen interval is
        ``mig.freeze``.  Either way the phases stay contiguous and the
        partition of ``total_time`` is preserved.
        """
        record = txn.record
        if record.commit_started:
            self._span(txn, MIG_FREEZE, record.freeze_started,
                       record.commit_started)
            self._span(txn, MIG_COMMIT, record.commit_started,
                       record.freeze_ended)
        else:
            self._span(txn, MIG_FREEZE, record.freeze_started,
                       record.freeze_ended)

    # ------------------------------------------------------------------
    # Failure exits
    # ------------------------------------------------------------------
    def _refuse(
        self, record: MigrationRecord, root: Optional[Span], why: str,
        message: str,
    ) -> None:
        """Finalize a refused migration and raise ``MigrationRefused``."""
        record.refused = True
        record.ended = self.sim.now
        record.detail["refusal"] = why
        self.records.append(record)
        if root is not None:
            root.annotate(refused=True, why=why).finish(record.ended)
        raise MigrationRefused(message)

    def _fail(
        self, txn: MigrationTxn, why: str, message: str
    ) -> Generator[Effect, None, None]:
        """The one way out of a transaction that cannot reach its commit
        point: replay the undo log (the process resumes on the source,
        unharmed), then refuse.  Raises ``MigrationAbandoned`` instead
        if this host crashed — recovery owns the transaction then."""
        yield from self._abort(txn)
        self._refuse(txn.record, txn.root, why, message)

    # ------------------------------------------------------------------
    # Step handlers, in ladder order
    # ------------------------------------------------------------------
    def _negotiate(self, txn: MigrationTxn) -> Generator[Effect, None, None]:
        """``negotiated``: get a leased ticket from the target."""
        pcb, target = txn.pcb, txn.target
        try:
            answer = yield from self.host.rpc.call(
                target,
                "mig.negotiate",
                {
                    "version": self.params.migration_version,
                    "pid": pcb.pid,
                    "name": pcb.name,
                    "uid": pcb.uid,
                    "home": pcb.home,
                    "reason": txn.reason,
                    "vm_bytes": pcb.vm.size,
                },
            )
        except RetryLaterError:
            # Backpressure, not death: the target is alive but at its
            # incoming cap (the RPC layer already retried with backoff).
            # Degrade to local execution with a distinct refusal reason.
            answer = {"accept": False, "why": "target busy (retry later)"}
        except RpcError as err:
            # Unreachable target: abort cleanly, process stays put.
            answer = {"accept": False, "why": f"target unreachable: {err}"}
        self._abandon_if_crashed(txn)
        if not answer.get("accept"):
            # Nothing to undo yet: no lease was issued.
            self.journal.finish(txn)
            self._refuse(
                txn.record,
                txn.root,
                answer.get("why", "unspecified"),
                f"host {target} refused pid {pcb.pid}: {answer.get('why')}",
            )
        txn.ticket_id = int(answer.get("ticket", 0))
        txn.expires = float(answer.get("expires", 0.0))
        txn.push_undo("ticket", ticket=txn.ticket_id)
        self._journal_step(txn, "negotiated")

    def _park(self, txn: MigrationTxn) -> Generator[Effect, None, MigrationTicket]:
        """Pre-copy while the process keeps running, then ask it to park
        at its next safe point and wait until it has."""
        pcb, target, record = txn.pcb, txn.target, txn.record
        negotiated_at = self.sim.now
        ticket = MigrationTicket(
            parked=SimEvent(self.sim, f"parked:{pcb.pid}"),
            resume=SimEvent(self.sim, f"resume:{pcb.pid}"),
        )
        try:
            pre_bytes = yield from self.policy.pre_freeze(self, pcb, target)
        except (RpcError, FsError) as err:
            yield from self._fail(
                txn,
                f"pre-copy failed: {err}",
                f"pre-copy to {target} failed for pid {pcb.pid}: {err}",
            )
        self._abandon_if_crashed(txn)
        record.detail["pre_freeze_bytes"] = pre_bytes
        precopied_at = self._span(txn, MIG_VM_PRE, negotiated_at,
                                  bytes=pre_bytes)
        pcb.migration_ticket = ticket
        if pcb.task is not None and pcb.interruptible:
            pcb.task.interrupt(("migrate", target))
        index, _value = yield first(ticket.parked.wait(), pcb.exit_event.wait())
        self._abandon_if_crashed(txn)
        if index == 1:
            # The process exited before reaching a safe point.
            pcb.migration_ticket = None
            yield from self._fail(
                txn,
                "process exited before freeze",
                f"pid {pcb.pid} exited before it could be migrated",
            )
        record.freeze_started = self._span(txn, MIG_WAIT_SAFE_POINT,
                                           precopied_at)
        # A long pre-copy may have burned most of the lease: renew it
        # now that the frozen transfer is about to start.
        yield from self._renew_lease(txn)
        return ticket

    def _renew_lease(self, txn: MigrationTxn) -> Generator[Effect, None, None]:
        """Best-effort lease renewal before the frozen transfer starts.

        Failure is tolerated: if the lease really is gone the install
        will refuse and the normal abort path runs.  A busy target is
        *not* a failed one — the lease still stands, so backpressure
        gets a short backoff and another try instead of a give-up."""
        reply = None
        for attempt in range(3):
            try:
                reply = yield from self.host.rpc.call(
                    txn.target, "mig.renew",
                    {"pid": txn.pid, "ticket": txn.ticket_id},
                )
            except RetryLaterError:
                self._abandon_if_crashed(txn)
                yield Sleep(self.host.rpc.retry_backoff(attempt))
                continue
            except RpcError:
                self._abandon_if_crashed(txn)
                return
            break
        if reply is None:
            return  # still busy after the backoffs: proceed unrenewed
        self._abandon_if_crashed(txn)
        if reply.get("renewed"):
            txn.expires = max(txn.expires, float(reply.get("expires", 0.0)))

    def _discard_address_space(self, txn: MigrationTxn) -> Generator[Effect, None, None]:
        """Exec replaces the old address space: drop it outright."""
        vm = txn.pcb.vm
        if vm.backing is not None and vm.backing.handle_id >= 0:
            yield from vm.backing.remove()
            vm.backing = None
        vm.size = 0
        vm.evict_resident()
        self._abandon_if_crashed(txn)

    def _ship(
        self, txn: MigrationTxn, skip_vm: bool, extra_bytes: int
    ) -> Generator[Effect, None, None]:
        """``vm_sent`` .. ``shipped``: move the frozen process's memory,
        kernel state and streams; the target installs them *inactive*."""
        pcb, target, record = txn.pcb, txn.target, txn.record
        params = self.params
        started = self.sim.now
        # -- virtual memory -------------------------------------------------
        if not skip_vm:
            try:
                record.vm = yield from self.policy.during_freeze(self, pcb, target)
            except (RpcError, FsError) as err:
                yield from self._fail(
                    txn,
                    f"vm transfer failed: {err}",
                    f"VM transfer to {target} failed for pid {pcb.pid}: {err}",
                )
            self._abandon_if_crashed(txn)
            started = self._span(
                txn, MIG_VM_TRANSFER, started,
                bytes=record.vm.bytes_total, policy=record.policy,
            )
        self._journal_step(txn, "vm_sent")
        # -- kernel state packaging (per-module encapsulation, §4.5) ---------
        yield from self.host.cpu.consume(params.migration_state_cpu)
        self._abandon_if_crashed(txn)
        started = self._span(txn, MIG_STATE_PACK, started)
        self._journal_step(txn, "state_packed")
        # -- open streams ---------------------------------------------------
        # Each export is preceded by an *intent* undo entry, so a crash
        # or failure mid-loop can roll back exactly the exports that may
        # have touched the server — including the one that failed.
        stream_states = []
        try:
            for fd, stream in stream_manifest(pcb):
                intent = txn.push_undo("stream", fd=fd, stream=stream,
                                       state=None)
                state = yield from self.host.fs.export_stream(stream, target)
                intent.detail["state"] = state
                stream_states.append((fd, state))
        except (RpcError, FsError) as err:
            yield from self._fail(
                txn,
                f"stream export failed: {err}",
                f"stream export to {target} failed for pid {pcb.pid}: {err}",
            )
        self._abandon_if_crashed(txn)
        record.streams_moved = len(stream_states)
        record.stream_bytes = stream_bytes(params, len(stream_states))
        record.state_bytes = state_bytes(params, extra_bytes)
        self._journal_step(txn, "streams_exported")
        started = self._span(txn, MIG_STREAMS, started,
                             count=record.streams_moved)
        # -- ship the state; the target installs it *inactive* ---------------
        if pcb.task is not None and pcb.task.done:
            yield from self._fail(
                txn,
                "process died during transfer",
                f"pid {pcb.pid} died while its state was being packaged",
            )
        wire_bytes = record.state_bytes + record.stream_bytes
        try:
            reply = yield from self.host.rpc.call(
                target, "mig.install",
                {"pcb": pcb, "pid": pcb.pid, "ticket": txn.ticket_id,
                 "streams": stream_states},
                size=wire_bytes,
            )
        except RpcError as err:
            # The target died before the commit point: abort — pull the
            # stream references back and leave the process running here.
            yield from self._fail(
                txn,
                f"install failed: {err}",
                f"target {target} failed during transfer of pid {pcb.pid}: "
                f"{err}",
            )
        self._abandon_if_crashed(txn)
        if not (reply or {}).get("installed"):
            why = (reply or {}).get("why", "install refused")
            yield from self._fail(
                txn,
                f"install refused: {why}",
                f"target {target} refused to install pid {pcb.pid}: {why}",
            )
        txn.expires = max(txn.expires, float(reply.get("expires", 0.0)))
        self._journal_step(txn, "shipped")
        self._span(txn, MIG_INSTALL, started, bytes=wire_bytes)

    def _commit(self, txn: MigrationTxn) -> Generator[Effect, None, None]:
        """``commit_sent`` .. ``closed``: cross the commit point, then
        run the post-commit duties."""
        pcb, target, record = txn.pcb, txn.target, txn.record
        if pcb.task is not None and pcb.task.done and pcb.current != target:
            yield from self._fail(
                txn,
                "process died before commit",
                f"pid {pcb.pid} died before the commit point",
            )
        record.commit_started = self.sim.now
        self._journal_step(txn, "commit_sent")
        outcome, why = yield from self._commit_rpc(txn)
        if outcome == "refused":
            yield from self._fail(
                txn,
                f"commit refused: {why}",
                f"target {target} could not activate pid {pcb.pid}: {why}",
            )
        if outcome == "lost":
            # The commit landed and then the target died (already
            # detected): the process is gone — record its death.
            record.detail["lost_after_commit"] = True
            self.journal.committed += 1
            yield from self._write_off(txn)
            self.journal.finish(txn)
            self._refuse(
                record,
                txn.root,
                "target lost after commit",
                f"target {target} crashed after pid {pcb.pid} committed",
            )
        # -- committed: the target's copy is the process ----------------------
        self._journal_step(txn, "committed")
        self._span(txn, MIG_COMMIT_RPC, record.commit_started)
        yield from self._post_commit(txn)
        self.journal.committed += 1
        pcb.migrations += 1
        self._trace("migrated", pid=pcb.pid, target=target,
                    reason=record.reason, streams=record.streams_moved)

    def _commit_rpc(self, txn: MigrationTxn) -> Generator[Effect, None, Any]:
        """Drive ``mig.commit`` to a definite outcome.

        Returns ``("committed", _)``, ``("refused", why)`` — nothing
        activated, abort is safe — or ``("lost", why)`` — the target
        activated and then crashed.  Silence (timeouts, partitions) is
        resolved by retrying until the activation marker, the target's
        detected-crash epoch, or the lease expiry settles the question.
        """
        target = txn.target
        peer_epoch = self._peer_epoch(target)
        reply = yield from self._settle(
            txn, target, "mig.commit",
            {"pid": txn.pid, "ticket": txn.ticket_id},
            stop=lambda: (
                self._activation_happened(txn) or self.sim.now > txn.expires
            ),
        )
        activated = self._activation_happened(txn)
        if reply is None:
            if self._peer_epoch(target) != peer_epoch:
                if activated:
                    return "lost", "target crashed after activating"
                return "refused", "target crashed before activating"
            if activated:
                return "committed", "activated"
            # The lease is gone: the target has reaped (or will refuse)
            # — the commit can no longer take effect.
            return "refused", "lease expired before commit landed"
        if reply.get("activated") or (reply.get("unknown") and activated):
            # ("unknown": an earlier in-doubt attempt activated and the
            # lease has since been closed/reaped; the commit stands.)
            return "committed", "activated"
        return "refused", reply.get("why", "commit refused")

    def _write_off(self, txn: MigrationTxn) -> Generator[Effect, None, None]:
        """The process committed to a target that then died: record the
        death so parents unblock instead of waiting forever."""
        pcb, target = txn.pcb, txn.target
        status = pcb.exit_status or ExitStatus(
            pid=pcb.pid,
            code=128 + signals.SIGKILL,
            cpu_time=pcb.cpu_time,
            exit_host=target,
        )
        pcb.exit_status = status
        if pcb.home == self.address:
            self._show_zombie(pcb)
            return
        # Foreign process: drop our copy and tell the home (bounded
        # retries — the home's own crash detection is the backstop).
        self.kernel.procs.pop(pcb.pid, None)
        yield from self._settle(
            txn, pcb.home, "proc.exit_notify",
            {"pid": pcb.pid, "code": status.code,
             "cpu_time": status.cpu_time, "exit_host": target},
            attempts=range(self.params.migration_rollback_retries + 1),
        )

    # ------------------------------------------------------------------
    # Home-side and residual-dependency services
    # ------------------------------------------------------------------
    def _rpc_update_location(self, args: Dict[str, Any]) -> Generator[Effect, None, None]:
        yield from self.host.cpu.consume(self.params.kernel_call_cpu)
        shadow = self.kernel.procs.get(args["pid"])
        if shadow is not None and shadow.state == ProcState.MIGRATED:
            shadow.current = args["current"]
        return None

    def _rpc_cor_fetch(self, nbytes: int) -> Generator[Effect, None, Reply]:
        """Serve a copy-on-reference page fetch (residual dependency)."""
        yield from self.host.cpu.consume(
            self.params.page_handling_cpu * self.params.pages(nbytes)
        )
        return Reply(result=nbytes, size=max(1, nbytes))
