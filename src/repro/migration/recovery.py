"""Resolving a migration transaction: abort, post-commit, recovery.

The forward walk down the ``TXN_STEPS`` ladder lives in
:mod:`repro.migration.mechanism`.  This module is everything the source
owes a transaction that cannot simply take its next step:

* **abort** (:meth:`TxnResolver._abort`) — before the commit point the
  source's copy is the process, so a failure replays the undo log
  (stream references pulled back, the target's lease released) and the
  process resumes where it was;
* **post-commit duties** (:meth:`TxnResolver._post_commit`) — after the
  commit point the target's copy is the process, and the source still
  has to detach its own copy, point a third-party home at the target and
  close the lease;
* **reboot recovery** (:meth:`TxnResolver.on_reboot`) — a source that
  crashed mid-transaction reads its journal, works out which side of the
  commit point each open transaction is on, and runs the same abort or
  the same post-commit duties, entering at the first step the journal
  has not recorded.

All three retry against peers that may be down, partitioned away or
overloaded with one loop, :meth:`TxnResolver._settle`.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from ..config import ClusterParams
from ..fs.errors import FsError
from ..kernel import Host, Pcb, ProcState, SpriteKernel
from ..net import NetworkPartitionedError, RetryLaterError, RpcError, RpcTimeout
from ..obs.spans import MIG_UPDATE_HOME
from ..sim import Effect, Sleep, spawn
from .txn import MigrationJournal, MigrationTxn, UndoEntry

__all__ = ["MigrationAbandoned", "MigrationRefused", "TxnResolver"]


class MigrationRefused(RpcError):
    """The target kernel declined the migration (version/policy), or the
    transaction aborted — either way the process did not move."""


class MigrationAbandoned(MigrationRefused):
    """The *source* crashed mid-transaction: the driving task must stop
    touching the transaction — reboot-time journal recovery owns it."""


class TxnResolver:
    """The journal of one host's outgoing migrations and the machinery
    that brings every transaction in it to an end; the base of
    :class:`~repro.migration.mechanism.MigrationManager`."""

    def __init__(self, host: Host):
        self.host = host
        self.kernel: SpriteKernel = host.kernel
        #: Write-ahead journal (persistent: survives host.crash).
        self.journal = MigrationJournal()
        #: Aborts whose undo log could not be fully replayed inline
        #: (a background repair task owns the remainder).
        self.rollback_incomplete = 0
        #: Bumped by ``on_crash``: driving tasks notice mid-protocol
        #: that their host died under them and abandon the transaction.
        self.crash_epoch = 0
        #: Per-peer crash epochs (bumped when the cluster *detects* a
        #: peer's crash) — the escape hatch for retry-forever loops.
        self._peer_epochs: Dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.host.sim

    @property
    def params(self) -> ClusterParams:
        return self.host.params

    @property
    def address(self) -> int:
        return self.host.address

    def _trace(self, kind: str, **fields: Any) -> None:
        tracer = self.host.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, f"mig:{self.host.name}", kind, **fields)

    # ------------------------------------------------------------------
    # Crash / reboot lifecycle (wired from SpriteKernel) and ownership
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Every driving task's claim on its transaction dies with the
        host.  The journal (modeled as written through the file system)
        survives."""
        self.crash_epoch += 1

    def on_reboot(self) -> None:
        """Replay the journal: resolve every transaction left open."""
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

    def _journal_step(self, txn: MigrationTxn, name: str) -> None:
        """Journal a step, then notice if the crash-matrix hook (which
        fires synchronously inside ``journal.log``) crashed this host."""
        self.journal.log(txn, name)
        self._abandon_if_crashed(txn)

    # ------------------------------------------------------------------
    # Retrying against a peer that may be gone
    # ------------------------------------------------------------------
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

    def _activation_happened(self, txn: MigrationTxn) -> bool:
        """Ground truth for an in-doubt commit.

        Only ``mig.commit``'s activation block ever points a PCB at the
        target, so this marker stands in for the state exchanged by
        Sprite's host-recovery handshake when the reply was lost.
        """
        return txn.pcb.current == txn.target

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
        self.journal.finish(txn)

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

    def _show_zombie(self, pcb: Pcb) -> None:
        """A home process that exited remotely: make sure the zombie is
        visible here to waiting parents."""
        self.kernel.procs.setdefault(pcb.pid, pcb)
        if pcb.state not in (ProcState.ZOMBIE, ProcState.DEAD):
            self.kernel._record_zombie(pcb, pcb.exit_status)

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
        root = txn.root
        if root is not None:
            self.host.tracer.record_span(MIG_UPDATE_HOME, root.source, started,
                                         self.sim.now, parent=root, home=home)

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
        if not txn.aborted:
            txn.aborted = True
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
            self.journal.finish(txn)
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
        for attempt in range(self.params.migration_rollback_retries):
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
                self.journal.finish(txn)
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
        if txn.did("closed"):
            self.journal.finish(txn)
            return
        activated = txn.did("committed")
        if not activated and txn.did("commit_sent"):
            activated = yield from self._resolve_at_target(txn)
        if not activated:
            yield from self._abort(txn)
            return
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
            attempts=range(self.params.migration_rollback_retries),
        )
        if reply is not None and reply.get("known"):
            return bool(reply.get("activated"))
        return self._activation_happened(txn)
