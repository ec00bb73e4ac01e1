"""The process-migration mechanism (thesis ch. 4), source side.

One :class:`MigrationManager` per host.  A migration is one transaction
(:mod:`repro.migration.txn`) walked down the ``TXN_STEPS`` ladder by a
single driver, :meth:`MigrationManager._drive`, with a *single commit
point* and an undo log:

1. **Negotiate** (``negotiated``) with the target kernel: migration
   *version numbers* must match (§4.5) and the target's acceptance
   policy must agree.  Acceptance issues a leased
   :class:`~repro.kernel.MigrationTicket` — the target reserves guest
   memory under it and reaps everything if no commit arrives before the
   lease expires (:mod:`repro.migration.lease`, the target side).
2. **Freeze** (``frozen``) the process at a safe point (between compute
   quanta or at kernel-call boundaries; in-flight kernel calls drain
   first).
3. **Transfer virtual memory** (``vm_sent``) per the configured policy
   (:mod:`repro.migration.vm`).
4. **Package and ship kernel state** (``state_packed``,
   ``streams_exported``, ``shipped``): the machine-independent PCB, then
   each open stream via the file system's export/import protocol (each
   export preceded by an intent entry in the undo log).  ``mig.install``
   leaves the copy **inactive** at the target, held in a
   :class:`~repro.kernel.PendingInstall` outside the process table.
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
from itertools import count
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..config import ClusterParams
from ..fs.errors import FsError
from ..kernel import (
    ExitStatus,
    Host,
    MigrationTicket,
    Pcb,
    ProcState,
    SpriteKernel,
    signals,
)
from ..net import (
    NetworkPartitionedError,
    Reply,
    RetryLaterError,
    RpcError,
    RpcTimeout,
)
from ..obs.spans import (
    MIG_COMMIT,
    MIG_COMMIT_RPC,
    MIG_FREEZE,
    MIG_INSTALL,
    MIG_MIGRATE,
    MIG_NEGOTIATE,
    MIG_STATE_PACK,
    MIG_STREAMS,
    MIG_UPDATE_HOME,
    MIG_VM_PRE,
    MIG_VM_TRANSFER,
    MIG_WAIT_SAFE_POINT,
    Span,
    SpanTracer,
)
from ..sim import Effect, SimClock, SimEvent, Sleep, Tracer, first, spawn
from .lease import LeaseService
from .packaging import export_streams, install_payload, state_bytes, stream_bytes
from .txn import MigrationJournal, MigrationTxn, TxnState, UndoEntry
from .vm import FlushToServer, VmOutcome, VmPolicy, make_policy

__all__ = [
    "MigrationManager",
    "MigrationRecord",
    "MigrationRefused",
    "MigrationAbandoned",
]


class MigrationRefused(RpcError):
    """The target kernel declined the migration (version/policy), or the
    transaction aborted — either way the process did not move."""


class MigrationAbandoned(MigrationRefused):
    """The *source* crashed mid-transaction: the driving task must stop
    touching the transaction — reboot-time journal recovery owns it."""


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


class MigrationManager:
    """Per-host migration engine: the source-side step driver, abort and
    recovery, plus the home-side and residual-dependency services.  The
    target-side services live in :attr:`leases`."""

    def __init__(
        self,
        host: Host,
        managers: Dict[int, "MigrationManager"],
        policy: Union[str, VmPolicy, None] = None,
        accept_hook: Optional[AcceptHook] = None,
    ):
        self.host = host
        self.kernel: SpriteKernel = host.kernel
        self.kernel.migration = self
        if policy is None:
            policy = FlushToServer()
        elif isinstance(policy, str):
            policy = make_policy(policy)
        self.policy: VmPolicy = policy
        self.accept_hook = accept_hook
        self.records: List[MigrationRecord] = []
        #: Span tracer shared cluster-wide (one per Tracer); disabled by
        #: default, so span sites cost one branch each.
        self.spans: SpanTracer = SpanTracer.for_tracer(host.tracer)
        #: Metrics hook, set by ``ClusterObservability.install``; when
        #: ``None`` (the default) no metrics work happens at all.
        self.obs: Optional[Any] = None
        #: Write-ahead journal (persistent: survives host.crash).
        self.journal = MigrationJournal(
            host.name, enabled=host.params.migration_txn_journal
        )
        self.journal.bind_clock(SimClock(host.sim))
        #: Overload backpressure: in-flight outgoing migrations (capped
        #: by ``params.migration_max_outgoing`` when > 0) and how often
        #: the cap refused one.
        self.outgoing_in_flight = 0
        self.refused_outgoing_cap = 0
        #: Aborts whose undo log could not be fully replayed inline
        #: (a background repair task owns the remainder).
        self.rollback_incomplete = 0
        #: Evictions that failed (their refusal is swallowed so one bad
        #: victim cannot strand the others on a reclaimed host).
        self.eviction_failures = 0
        #: Bumped by ``on_crash``: driving tasks notice mid-protocol
        #: that their host died under them and abandon the transaction.
        self.crash_epoch = 0
        #: Per-peer crash epochs (bumped when the cluster *detects* a
        #: peer's crash) — the escape hatch for retry-forever loops.
        self._peer_epochs: Dict[int, int] = {}
        self._managers = managers
        managers[host.address] = self
        #: Target side: lease registry and the ``mig.*`` lease services.
        self.leases = LeaseService(self)
        self.host.rpc.register("mig.update_location", self._rpc_update_location)
        self.host.rpc.register("mig.cor_fetch", self._rpc_cor_fetch,
                               idempotent=True)

    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.host.sim

    @property
    def lan(self):
        return self.host.lan

    @property
    def params(self) -> ClusterParams:
        return self.host.params

    @property
    def address(self) -> int:
        return self.host.address

    @property
    def tracer(self) -> Tracer:
        return self.host.tracer

    def _trace(self, kind: str, **fields: Any) -> None:
        tracer = self.host.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, f"mig:{self.host.name}", kind, **fields)

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
    # Crash / reboot lifecycle (wired from SpriteKernel)
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Volatile migration state dies with the host: the lease
        registry and every driving task's claim on its transaction.
        The journal (modeled as written through the file system)
        survives."""
        self.crash_epoch += 1
        self.leases.on_crash()

    def on_reboot(self) -> None:
        """Replay the journal: resolve every transaction left open."""
        if not self.journal.enabled:
            return
        txns = self.journal.open_txns()
        if not txns:
            return
        spawn(
            self.sim,
            self._recover_journal(txns, self.crash_epoch),
            name=f"mig-recovery:{self.host.name}",
            daemon=True,
        )

    def peer_crashed(self, address: int) -> None:
        """The cluster detected ``address`` crashed (kernel callback)."""
        self._peer_epochs[address] = self._peer_epochs.get(address, 0) + 1

    def _peer_epoch(self, address: int) -> int:
        return self._peer_epochs.get(address, 0)

    def _crashed_since(self, epoch: int) -> bool:
        return self.crash_epoch != epoch or not self.host.node.up

    def _abandon_if_crashed(self, txn: MigrationTxn) -> None:
        """Raise if this host crashed since the driving task took
        ownership of ``txn`` — it must not touch the txn again."""
        if self._crashed_since(txn.epoch):
            raise MigrationAbandoned(
                f"host {self.host.name} crashed mid-migration "
                f"(txn {txn.txn_id})"
            )

    def _journal_step(self, txn: MigrationTxn, name: str, **detail: Any) -> None:
        """Journal a step, then notice if the crash-matrix hook (which
        fires synchronously inside ``journal.log``) crashed this host."""
        if txn.recovering:
            detail["recovered"] = True
        txn.step(name, **detail)
        self._abandon_if_crashed(txn)

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

    def evict_all_foreign(self, reason: str = "eviction") -> Generator[Effect, None, List[MigrationRecord]]:
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
                record = yield from self.migrate(pcb, pcb.home, reason=reason)
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
            self._phase(txn, MIG_NEGOTIATE, record.started, self.sim.now)
            if park:
                ticket = yield from self._park(txn)
            else:
                record.freeze_started = self.sim.now
            txn.advance(TxnState.FROZEN)
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
            if self.obs is not None:
                self.obs.on_migration(record)
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
        spans = self.spans
        if not spans.enabled:
            return None
        return spans.start(
            MIG_MIGRATE,
            f"mig:{self.host.name}",
            t=record.started,
            pid=record.pid,
            src=record.source,
            dst=record.target,
            reason=record.reason,
        )

    def _phase(
        self, txn: MigrationTxn, name: str, start: float, end: float,
        **attrs: Any,
    ) -> None:
        """Record one lifecycle phase as a child of the root span.

        Phases are emitted with explicit boundaries so consecutive
        phases are contiguous: their durations sum exactly to the
        root's extent (``MigrationRecord.total_time``).
        """
        root = txn.root
        if root is not None:
            self.spans.record(name, root.source, start, end, parent=root,
                              **attrs)

    def _step(
        self, txn: MigrationTxn, name: str, started: float, **attrs: Any
    ) -> float:
        """Record one transfer sub-step span ending now; returns now
        (where the next sub-step starts)."""
        now = self.sim.now
        root = txn.root
        if root is not None:
            self.spans.record(name, root.source, started, now, parent=root,
                              **attrs)
        return now

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
            self._phase(txn, MIG_FREEZE, record.freeze_started,
                        record.commit_started)
            self._phase(txn, MIG_COMMIT, record.commit_started,
                        record.freeze_ended)
        else:
            self._phase(txn, MIG_FREEZE, record.freeze_started,
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
        if self.obs is not None:
            self.obs.on_migration(record)
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
            txn.finish()
            self._refuse(
                txn.record,
                txn.root,
                answer.get("why", "unspecified"),
                f"host {target} refused pid {pcb.pid}: {answer.get('why')}",
            )
        txn.ticket_id = int(answer.get("ticket", 0))
        txn.expires = float(answer.get("expires", 0.0))
        txn.push_undo("ticket", ticket=txn.ticket_id)
        self._journal_step(txn, "negotiated", ticket=txn.ticket_id)

    def _park(self, txn: MigrationTxn) -> Generator[Effect, None, MigrationTicket]:
        """Pre-copy while the process keeps running, then ask it to park
        at its next safe point and wait until it has."""
        pcb, target, record = txn.pcb, txn.target, txn.record
        negotiated_at = self.sim.now
        ticket = MigrationTicket(
            target=target,
            reason=txn.reason,
            parked=SimEvent(self.sim, f"parked:{pcb.pid}"),
            resume=SimEvent(self.sim, f"resume:{pcb.pid}"),
            ticket_id=txn.ticket_id,
            expires=txn.expires,
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
        precopied_at = self.sim.now
        self._phase(txn, MIG_VM_PRE, negotiated_at, precopied_at,
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
        record.freeze_started = self.sim.now
        self._phase(txn, MIG_WAIT_SAFE_POINT, precopied_at,
                    record.freeze_started)
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
            started = self._step(
                txn, MIG_VM_TRANSFER, started,
                bytes=record.vm.bytes_total, policy=record.policy,
            )
        self._journal_step(txn, "vm_sent")
        # -- kernel state packaging (per-module encapsulation, §4.5) ---------
        yield from self.host.cpu.consume(params.migration_state_cpu)
        self._abandon_if_crashed(txn)
        started = self._step(txn, MIG_STATE_PACK, started)
        self._journal_step(txn, "state_packed")
        # -- open streams ---------------------------------------------------
        # Each export is preceded by an *intent* undo entry, so a crash
        # or failure mid-loop can roll back exactly the exports that may
        # have touched the server — including the one that failed.
        def _export_intent(fd: int, stream: Any) -> UndoEntry:
            return txn.push_undo("stream", fd=fd, stream=stream, state=None)

        try:
            stream_states = yield from export_streams(
                self.host.fs, pcb, target, on_export=_export_intent
            )
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
        self._journal_step(txn, "streams_exported", count=record.streams_moved)
        started = self._step(txn, MIG_STREAMS, started,
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
                install_payload(pcb, txn.ticket_id, stream_states),
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
        txn.advance(TxnState.SHIPPED)
        self._journal_step(txn, "shipped")
        self._step(txn, MIG_INSTALL, started, bytes=wire_bytes)

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
            txn.advance(TxnState.COMMITTED)
            record.detail["lost_after_commit"] = True
            self.journal.committed += 1
            yield from self._write_off(txn)
            txn.finish()
            self._refuse(
                record,
                txn.root,
                "target lost after commit",
                f"target {target} crashed after pid {pcb.pid} committed",
            )
        # -- committed: the target's copy is the process ----------------------
        self._journal_step(txn, "committed")
        txn.advance(TxnState.COMMITTED)
        self._step(txn, MIG_COMMIT_RPC, record.commit_started)
        yield from self._post_commit(txn)
        self.journal.committed += 1
        pcb.migrations += 1
        self._trace("migrated", pid=pcb.pid, target=target,
                    reason=record.reason, streams=record.streams_moved)

    def _activation_happened(self, txn: MigrationTxn) -> bool:
        """Ground truth for an in-doubt commit.

        Only ``mig.commit``'s activation block ever points a PCB at the
        target, so this marker stands in for the state exchanged by
        Sprite's host-recovery handshake when the reply was lost.
        """
        return txn.pcb.current == txn.target

    def _commit_rpc(
        self, txn: MigrationTxn
    ) -> Generator[Effect, None, Tuple[str, str]]:
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

    def _settle(
        self,
        txn: MigrationTxn,
        peer: int,
        service: str,
        args: Dict[str, Any],
        attempts: Optional[Iterable[int]] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> Generator[Effect, None, Any]:
        """Call ``service`` at ``peer`` until the question is settled.

        Silence is in-doubt — the request may have been delivered — so
        it is retried with backoff until the call lands (its reply is
        returned), or one of the things that make it moot happens and
        ``None`` is returned: the cluster detects that ``peer`` crashed
        (its volatile state is gone), ``stop()`` turns true, or the
        ``attempts`` (backoff exponents, one per try; unbounded when
        omitted) run out.  Raises ``MigrationAbandoned`` if this host
        crashes meanwhile.
        """
        peer_epoch = self._peer_epoch(peer)
        for attempt in count(1) if attempts is None else attempts:
            self._abandon_if_crashed(txn)
            if self._peer_epoch(peer) != peer_epoch:
                return None
            if stop is not None and stop():
                return None
            try:
                return (yield from self.host.rpc.call(peer, service, args))
            except (RpcTimeout, NetworkPartitionedError, RetryLaterError):
                yield Sleep(self.host.rpc.retry_backoff(attempt))
        return None

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

    def _show_zombie(self, pcb: Pcb) -> None:
        """A home process that exited remotely: make sure the zombie is
        visible here to waiting parents."""
        self.kernel.procs.setdefault(pcb.pid, pcb)
        if pcb.state not in (ProcState.ZOMBIE, ProcState.DEAD):
            self.kernel._record_zombie(pcb, pcb.exit_status)

    # ------------------------------------------------------------------
    # Post-commit duties (forward path and journal recovery alike)
    # ------------------------------------------------------------------
    def _post_commit(self, txn: MigrationTxn) -> Generator[Effect, None, None]:
        """``detached`` -> ``home_updated`` -> ``closed``, then finish.

        Every duty is idempotent, so reboot-time recovery calls this
        too: what the journal already records at the home and the target
        is skipped, while the detach — state in the source's own,
        volatile process table — is redone.
        """
        self._detach(txn)
        self._journal_step(txn, "detached")
        if not txn.did("home_updated"):
            yield from self._update_home(txn)
            self._journal_step(txn, "home_updated")
        if not txn.did("closed"):
            yield from self._close_lease(txn)
            self._journal_step(txn, "closed")
        txn.finish()

    def _detach(self, txn: MigrationTxn) -> None:
        """``detached``: the source's copy gives way to the target's —
        a shadow at the home, nothing anywhere else."""
        pcb = txn.pcb
        if not txn.recovering:
            self.kernel.detach_pcb(pcb, txn.target)
        elif pcb.home == self.address:
            # The crash wiped the process table: rebuild what a home
            # must hold (a foreign process left nothing to rebuild).
            if pcb.exit_status is not None:
                self._show_zombie(pcb)
            elif pcb.pid not in self.kernel.procs:
                self.kernel.detach_pcb(pcb, txn.target)

    def _update_home(self, txn: MigrationTxn) -> Generator[Effect, None, None]:
        """``home_updated``: point a third-party home's shadow at the
        target.  Must land: retried until the home answers or is
        declared crashed (then no shadow survives to update)."""
        home = txn.pcb.home
        if home in (self.address, txn.target):
            return  # the home is one end of the transfer: it knows
        started = self.sim.now
        yield from self._settle(
            txn, home, "mig.update_location",
            {"pid": txn.pid, "current": txn.target},
        )
        self._step(txn, MIG_UPDATE_HOME, started, home=home)

    def _close_lease(self, txn: MigrationTxn) -> Generator[Effect, None, None]:
        """``closed``: drop the target's lease record.  Retried until it
        lands, the lease registry dies with the target, or the lease
        runs out — the target's own reaper is the backstop."""
        yield from self._settle(
            txn, txn.target, "mig.close",
            {"pid": txn.pid, "ticket": txn.ticket_id},
            stop=lambda: self.sim.now > txn.expires,
        )

    # ------------------------------------------------------------------
    # Abort / undo-log replay
    # ------------------------------------------------------------------
    def _abort(self, txn: MigrationTxn) -> Generator[Effect, None, None]:
        """Abort: replay the undo log (with retry/backoff); if retries
        exhaust, hand the remainder to a background repair task so the
        frozen process is never held hostage to a dead peer.

        Recovery aborts the same way, except that the source's copy —
        the authoritative one — died with the crash, so reclaimed
        stream references are closed out rather than restored
        (:meth:`_undo_one`)."""
        if not txn.recovering:
            self._abandon_if_crashed(txn)
        if txn.state is not TxnState.ABORTED:
            txn.advance(TxnState.ABORTED)
            self.journal.aborted += 1
        ok = True
        for entry in txn.pending_undo():
            done = yield from self._try_undo(entry, txn)
            if not done:
                ok = False
        if txn.recovering:
            self.journal.recovered += 1
            self._trace("txn-recovered", txn=txn.txn_id, outcome="aborted")
        if ok:
            txn.finish()
            return
        txn.rollback_pending = True
        self.rollback_incomplete += 1
        if not txn.recovering:
            self._trace("rollback-incomplete", txn=txn.txn_id)
        spawn(
            self.sim,
            self._repair(txn),
            name=f"mig-repair:{txn.txn_id}",
            daemon=True,
        )

    def _try_undo(
        self, entry: UndoEntry, txn: MigrationTxn
    ) -> Generator[Effect, None, bool]:
        for attempt in range(max(1, self.params.migration_rollback_retries)):
            self._abandon_if_crashed(txn)
            try:
                yield from self._undo_one(entry, txn)
                return True
            except RetryLaterError:
                # The peer is alive but overloaded: every undo (ticket
                # release included) will land once it drains, so back
                # off and retry — never downgrade to "left to expire".
                yield Sleep(self.host.rpc.retry_backoff(attempt))
                continue
            except (RpcError, FsError):
                if entry.kind == "ticket":
                    # The lease self-destructs at expiry; stop hammering
                    # a dead or partitioned target.
                    entry.undone = True
                    entry.detail["released"] = "left to expire"
                    return True
                yield Sleep(self.host.rpc.retry_backoff(attempt))
        return False

    def _undo_one(
        self, entry: UndoEntry, txn: MigrationTxn
    ) -> Generator[Effect, None, None]:
        """Apply one compensating action (idempotent via ``entry.undone``)."""
        if entry.undone:
            return
        if entry.kind == "stream":
            stream = entry.detail["stream"]
            state = entry.detail.get("state")
            if state is None:
                # The export never returned — but its server-side move
                # may have landed (lost reply).  Compensate blind: the
                # reverse move is safe either way (the server clamps a
                # decrement of a reference it never saw).
                if stream.is_pipe:
                    kind = "pipe"
                elif stream.is_pdev:
                    kind = "pdev"
                else:
                    kind = "file"
                state = {
                    "undo": {
                        "kind": kind,
                        "addref_sent": False,
                        "refcount_decremented": False,
                    },
                }
            yield from self.host.fs.undo_export(stream, state, txn.target)
            if txn.recovering and not stream.closed:
                # The process died with the crash, so the reclaimed
                # reference must also be closed out.
                stream.refcount = 1
                yield from self.host.fs.close(stream)
            entry.undone = True
            return
        if entry.kind == "ticket":
            yield from self.host.rpc.call(
                txn.target,
                "mig.release",
                {"pid": txn.pid,
                 "ticket": entry.detail.get("ticket", txn.ticket_id)},
            )
            entry.undone = True
            return

    def _repair(self, txn: MigrationTxn) -> Generator[Effect, None, None]:
        """Background retry loop for an abort whose inline rollback
        exhausted its retries (e.g. the FS server was down too)."""
        attempt = 0
        while True:
            if self._crashed_since(txn.epoch):
                return  # reboot recovery owns the journal now
            pending = txn.pending_undo()
            if not pending:
                txn.rollback_pending = False
                txn.finish()
                self._trace("rollback-repaired", txn=txn.txn_id)
                return
            progressed = False
            for entry in pending:
                if entry.kind == "ticket" and self.sim.now > txn.expires:
                    entry.undone = True
                    entry.detail["released"] = "expired"
                    progressed = True
                    continue
                try:
                    yield from self._undo_one(entry, txn)
                    progressed = True
                except (RpcError, FsError):
                    continue
            if not progressed:
                attempt += 1
                yield Sleep(self.host.rpc.retry_backoff(attempt))

    # ------------------------------------------------------------------
    # Reboot-time journal recovery
    # ------------------------------------------------------------------
    def _recover_journal(
        self, txns: List[MigrationTxn], epoch: int
    ) -> Generator[Effect, None, None]:
        """Resolve every transaction the crash left open."""
        yield from self.host.cpu.consume(
            self.params.kernel_call_cpu * max(1, len(txns))
        )
        for stale in txns:
            if self._crashed_since(epoch):
                return
            txn = self.journal.reopen(stale, epoch)
            try:
                yield from self._recover_txn(txn)
            except MigrationAbandoned:
                return
            except (RpcError, FsError) as err:  # pragma: no cover - safety net
                self._trace("recovery-failed", txn=txn.txn_id, why=str(err))

    def _recover_txn(self, txn: MigrationTxn) -> Generator[Effect, None, None]:
        """Finish what the journal says was started: a transaction whose
        commit activated resumes the post-commit duties where the
        journal stops; any other is aborted."""
        if txn.state is TxnState.COMMITTED and txn.did("closed"):
            txn.finish()
            return
        activated = txn.did("committed")
        if not activated and txn.did("commit_sent"):
            activated = yield from self._resolve_at_target(txn)
        if not activated:
            yield from self._abort(txn)
            return
        txn.advance(TxnState.COMMITTED)
        self._journal_step(txn, "committed")
        yield from self._post_commit(txn)
        self.journal.recovered += 1
        self._trace("txn-recovered", txn=txn.txn_id, outcome="committed")

    def _resolve_at_target(self, txn: MigrationTxn) -> Generator[Effect, None, bool]:
        """Ask the target whether an in-doubt commit activated; if its
        lease is gone (or it never answers), fall back to the marker."""
        reply = yield from self._settle(
            txn, txn.target, "mig.resolve",
            {"pid": txn.pid, "ticket": txn.ticket_id},
            attempts=range(max(1, self.params.migration_rollback_retries)),
        )
        if reply is not None and reply.get("known"):
            return bool(reply.get("activated"))
        return self._activation_happened(txn)

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
