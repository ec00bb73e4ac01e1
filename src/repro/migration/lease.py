"""Target side of the migration transaction: the lease service.

A target that accepts a migration issues a *leased* ticket
(:class:`TicketLease`): guest memory is reserved under it, ``mig.install``
parks the shipped process **inactive** under it, and ``mig.commit`` — the
transaction's single commit point — activates that copy.  If no commit
arrives before the lease expires, the reaper drops everything held under
it, so a source that crashes or is partitioned away mid-transfer never
leaves a second runnable copy or a leaked reservation behind.

One :class:`LeaseService` per host, owned by that host's
:class:`~repro.migration.mechanism.MigrationManager`; the source side of
the protocol (the step driver, abort and recovery) lives in
:mod:`repro.migration.mechanism`.  All state here is volatile: it dies
with the host (:meth:`LeaseService.on_crash`), which is exactly why an
unexpired lease at a crashed target is simply gone and the source must
treat silence as abort-or-resolve, never as success.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

from ..fs import Stream
from ..kernel import Pcb
from ..net import RetryLaterError
from ..sim import Effect, Sleep, spawn
from .packaging import PACKAGE_EXCEPTIONS

if TYPE_CHECKING:  # pragma: no cover
    from .mechanism import MigrationManager

__all__ = ["LeaseService", "TicketLease"]


@dataclass
class TicketLease:
    """Target-side record of one issued migration ticket.

    Held by the :class:`LeaseService` from ``mig.negotiate`` until
    ``mig.close`` / ``mig.release`` / lease expiry.  While ``status`` is
    ``"installed"`` the lease holds the *inactive* copy ``mig.install``
    shipped — ``pcb`` and ``streams`` — outside the process table, never
    runnable, until the source's ``mig.commit`` activates it.  The
    travelling :class:`Pcb` is deliberately left untouched: if the
    transaction aborts, the source resumes the process with no
    target-side mutation to undo.
    """

    pid: int
    ticket_id: int
    expires: float
    #: Guest memory reserved under the lease (freed on activation,
    #: reap, release or close).
    reserved_bytes: int = 0
    #: issued -> installing -> installed -> activated -> closed
    #: (or released / reaped on the abort paths).
    status: str = "issued"
    pcb: Optional[Pcb] = None
    #: fd -> stream copies already imported into the target's FsClient.
    streams: Dict[int, Stream] = field(default_factory=dict)


class LeaseService:
    """Per-host lease registry and the ``mig.*`` services a target runs."""

    def __init__(self, manager: "MigrationManager"):
        self.manager = manager
        self.host = manager.host
        self._trace = manager._trace
        #: (pid, ticket_id) -> lease.
        self._tickets: Dict[Tuple[int, int], TicketLease] = {}
        self._ticket_seq = 0
        #: Guest memory currently reserved under unexpired leases.
        self.reserved_bytes = 0
        #: Foreign offers turned away at ``params.migration_max_incoming``.
        self.refused_incoming_busy = 0
        #: Accept timestamps of migrations not yet installed; acceptance
        #: policies count these against guest caps (flood prevention,
        #: [BSW89]).  Entries expire so an aborted transfer cannot leak
        #: a permanent reservation: each is honoured for as long as the
        #: ticket it stands for, ``params.migration_ticket_ttl``.
        self._pending_accepts: List[float] = []
        rpc = self.host.rpc
        rpc.register("mig.negotiate", self._rpc_negotiate)
        rpc.register("mig.install", self._rpc_install)
        rpc.register("mig.commit", self._rpc_commit)
        rpc.register("mig.release", self._rpc_release)
        rpc.register("mig.renew", self._rpc_renew)
        rpc.register("mig.resolve", self._rpc_resolve)
        rpc.register("mig.close", self._rpc_close)

    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.host.sim

    @property
    def params(self):
        return self.host.params

    def held(self) -> List[TicketLease]:
        """Every lease currently held, in ``(pid, ticket_id)`` order."""
        return [self._tickets[key] for key in sorted(self._tickets)]

    def on_crash(self) -> None:
        """Leases, reservations and pending accepts die with the host."""
        self._tickets.clear()
        self._pending_accepts.clear()
        self.reserved_bytes = 0

    def _crashed_since(self, epoch: int) -> bool:
        """Did this host crash since a service task captured ``epoch``?
        (A zombie service task must not resurrect state.)"""
        return epoch != self.manager.crash_epoch or not self.host.node.up

    # ------------------------------------------------------------------
    # Flood prevention (read by acceptance policies)
    # ------------------------------------------------------------------
    @property
    def pending_arrivals(self) -> int:
        """Accepted migrations still in flight (stale entries pruned)."""
        horizon = self.sim.now - self.params.migration_ticket_ttl
        self._pending_accepts = [t for t in self._pending_accepts if t > horizon]
        return len(self._pending_accepts)

    def note_incoming(self) -> None:
        """Record an acceptance (called by acceptance policies)."""
        self._pending_accepts.append(self.sim.now)

    # ------------------------------------------------------------------
    # Lease lifecycle
    # ------------------------------------------------------------------
    def _rpc_negotiate(self, args: Dict[str, Any]) -> Generator[Effect, None, Dict[str, Any]]:
        params = self.params
        epoch = self.manager.crash_epoch
        yield from self.host.cpu.consume(params.kernel_call_cpu)
        if self._crashed_since(epoch):
            return {"accept": False, "why": "target crashed during negotiation"}
        if args["version"] != params.migration_version:
            return {
                "accept": False,
                "why": (
                    f"migration version mismatch: theirs {args['version']}, "
                    f"ours {params.migration_version}"
                ),
            }
        # A host always accepts its own processes back (eviction must
        # never fail); foreign work passes admission control first.
        if args["home"] != self.host.address:
            cap = params.migration_max_incoming
            if cap > 0 and len(self._tickets) >= cap:
                # Overloaded, not dead: the error crosses the wire and
                # tells the source to back off — an unbounded burst of
                # offers degrades to local execution instead of piling
                # leases onto a saturated target.
                self.refused_incoming_busy += 1
                raise RetryLaterError(
                    f"host {self.host.name} at incoming-migration cap "
                    f"({cap} lease(s) outstanding)"
                )
            accept_hook = self.manager.accept_hook
            if accept_hook is not None and not accept_hook(args):
                return {"accept": False, "why": "host not accepting foreign work"}
        self._ticket_seq += 1
        lease = TicketLease(
            pid=args["pid"],
            ticket_id=self._ticket_seq,
            expires=self.sim.now + params.migration_ticket_ttl,
            reserved_bytes=int(args.get("vm_bytes", 0)),
        )
        key = (lease.pid, lease.ticket_id)
        self._tickets[key] = lease
        self.reserved_bytes += lease.reserved_bytes
        spawn(
            self.sim,
            self._reaper(key, lease),
            name=f"mig-reaper:{self.host.name}:{lease.ticket_id}",
            daemon=True,
        )
        self._trace("ticket-issued", pid=lease.pid, ticket=lease.ticket_id,
                    reserved=lease.reserved_bytes)
        return {
            "accept": True,
            "version": params.migration_version,
            "ticket": lease.ticket_id,
            "expires": lease.expires,
        }

    def _reaper(self, key: Tuple[int, int], lease: TicketLease) -> Generator[Effect, None, None]:
        """Reap the lease (and any inactive copy under it) at expiry."""
        while True:
            now = self.sim.now
            if now >= lease.expires:
                break
            yield Sleep(lease.expires - now)
        if self._tickets.get(key) is not lease:
            return  # closed/released/re-issued meanwhile (or we crashed)
        self._drop(key, lease, "reaped", why="expired")

    def _drop(
        self, key: Tuple[int, int], lease: TicketLease, status: str, **why: Any
    ) -> None:
        """Forget a lease that will never activate — ``status`` is
        ``reaped`` or ``released``, traced as ``ticket-reaped`` /
        ``ticket-released``: free its reservation and discard any
        inactive copy held under it.  The source still owns the stream
        references (its abort or recovery pulls them back); only local
        records go."""
        self._tickets.pop(key, None)
        self._free_reservation(lease)
        if lease.status == "installed":
            self._discard(lease.streams)
        lease.pcb, lease.streams = None, {}
        lease.status = status
        self._trace(f"ticket-{status}", pid=lease.pid, ticket=lease.ticket_id,
                    **why)

    def _discard(self, streams: Dict[int, Stream]) -> None:
        """Drop the stream references an abandoned install imported."""
        for fd in sorted(streams):
            self.host.fs.forget_stream(streams[fd])

    def _free_reservation(self, lease: TicketLease) -> None:
        self.reserved_bytes = max(0, self.reserved_bytes - lease.reserved_bytes)
        lease.reserved_bytes = 0

    def _renewed(self, lease: TicketLease) -> float:
        """Each protocol message renews the lease (the reaper re-checks)."""
        lease.expires = max(
            lease.expires, self.sim.now + self.params.migration_ticket_ttl
        )
        return lease.expires

    def _rpc_install(self, payload: Dict[str, Any]) -> Generator[Effect, None, Dict[str, Any]]:
        """Install the shipped state *inactive* under its lease.

        The travelling PCB is deliberately not touched and nothing
        enters the process table: until ``mig.commit`` the source's
        copy is the process, and an abort has nothing here to undo
        beyond dropping the lease's imported streams.
        """
        epoch = self.manager.crash_epoch
        pcb: Pcb = payload["pcb"]
        key = (payload.get("pid", pcb.pid), payload.get("ticket", 0))
        if self._pending_accepts:
            self._pending_accepts.pop(0)
        lease = self._tickets.get(key)
        if lease is None:
            return {"installed": False, "why": "unknown or expired ticket"}
        if lease.status == "installed":
            # Idempotent: a retried install is acknowledged, not redone.
            return {"installed": True, "duplicate": True,
                    "expires": lease.expires}
        if lease.status != "issued":
            return {"installed": False, "why": f"ticket is {lease.status}"}
        if self.sim.now >= lease.expires:
            return {"installed": False, "why": "ticket expired"}
        lease.status = "installing"
        yield from self.host.cpu.consume(self.params.migration_state_cpu)
        streams: Dict[int, Stream] = {}
        failure = None
        for fd, state in payload["streams"]:
            try:
                streams[fd] = yield from self.host.fs.import_stream(state)
            except PACKAGE_EXCEPTIONS as err:
                failure = err
                break
        # Re-validate after the yields: the host may have crashed (and
        # even rebooted) or the reaper may have fired mid-install.
        if self._crashed_since(epoch) or self._tickets.get(key) is not lease:
            self._discard(streams)
            return {"installed": False, "why": "lease lost during install"}
        if failure is not None:
            self._discard(streams)
            lease.status = "issued"
            return {"installed": False, "why": f"stream import failed: {failure}"}
        self._renewed(lease)
        lease.pcb, lease.streams = pcb, streams
        lease.status = "installed"
        self._trace("installed", pid=pcb.pid, ticket=lease.ticket_id)
        return {"installed": True, "expires": lease.expires}

    def _rpc_commit(self, args: Dict[str, Any]) -> Generator[Effect, None, Dict[str, Any]]:
        """The commit point, target side: activate the inactive copy.

        Everything from ``install_pcb`` to the reply is yield-free, so
        activation is atomic with respect to crashes and other tasks —
        there is never an instant with two runnable copies.
        """
        epoch = self.manager.crash_epoch
        key = (args["pid"], args["ticket"])
        yield from self.host.cpu.consume(self.params.kernel_call_cpu)
        if self._crashed_since(epoch):
            return {"activated": False, "why": "target crashed during commit"}
        lease = self._tickets.get(key)
        if lease is None:
            return {"activated": False, "unknown": True,
                    "why": "unknown or expired ticket"}
        if lease.status == "activated":
            return {"activated": True, "duplicate": True}
        if lease.status != "installed":
            return {"activated": False,
                    "why": f"ticket is {lease.status}: nothing installed"}
        if self.sim.now >= lease.expires:
            self._drop(key, lease, "reaped", why="expired-at-commit")
            return {"activated": False, "why": "ticket expired"}
        pcb = lease.pcb
        if pcb.task is not None and pcb.task.done:
            self._drop(key, lease, "reaped", why="process-died")
            return {"activated": False, "why": "process died before commit"}
        # --- activation: atomic (no yields until the return) ---
        self.host.kernel.install_pcb(pcb)
        pcb.streams = dict(lease.streams)
        if pcb.vm.backing is not None:
            pcb.vm.backing = pcb.vm.backing.handoff(self.host.fs)
        self._free_reservation(lease)
        # The lease outlives activation (until mig.close or its reaper
        # wakes); it must not keep the process's state alive meanwhile.
        lease.pcb, lease.streams = None, {}
        lease.status = "activated"
        self._trace("activated", pid=pcb.pid, ticket=lease.ticket_id)
        return {"activated": True}

    def _rpc_release(self, args: Dict[str, Any]) -> Generator[Effect, None, Dict[str, Any]]:
        """Source-side abort is releasing its lease (undo-log replay)."""
        epoch = self.manager.crash_epoch
        key = (args["pid"], args["ticket"])
        yield from self.host.cpu.consume(self.params.kernel_call_cpu)
        if self._crashed_since(epoch):
            return {"released": False, "why": "target crashed"}
        lease = self._tickets.get(key)
        if lease is None:
            return {"released": True, "already": True}
        if lease.status == "activated":
            return {"released": False, "why": "already activated"}
        self._drop(key, lease, "released")
        return {"released": True}

    def _rpc_renew(self, args: Dict[str, Any]) -> Generator[Effect, None, Dict[str, Any]]:
        """Extend a live lease (the source is about to freeze/ship)."""
        epoch = self.manager.crash_epoch
        key = (args["pid"], args["ticket"])
        yield from self.host.cpu.consume(self.params.kernel_call_cpu)
        if self._crashed_since(epoch):
            return {"renewed": False, "why": "target crashed"}
        lease = self._tickets.get(key)
        if lease is None or lease.status not in ("issued", "installing", "installed"):
            return {"renewed": False, "why": "lease not renewable"}
        return {"renewed": True, "expires": self._renewed(lease)}

    def _rpc_resolve(self, args: Dict[str, Any]) -> Generator[Effect, None, Dict[str, Any]]:
        """Recovery probe: did an in-doubt commit activate?  Read-only."""
        yield from self.host.cpu.consume(self.params.kernel_call_cpu)
        lease = self._tickets.get((args["pid"], args["ticket"]))
        if lease is None:
            return {"known": False, "activated": False}
        return {"known": True, "activated": lease.status == "activated"}

    def _rpc_close(self, args: Dict[str, Any]) -> Generator[Effect, None, Dict[str, Any]]:
        """Committed migration complete: drop the lease record."""
        key = (args["pid"], args["ticket"])
        yield from self.host.cpu.consume(self.params.kernel_call_cpu)
        lease = self._tickets.pop(key, None)
        if lease is not None:
            self._free_reservation(lease)
            lease.status = "closed"
        return {"closed": lease is not None}
