"""Virtual-memory transfer policies (thesis §4.2.1).

The literature's four designs, behind one strategy interface so the
mechanism (and benchmark E2) can swap them:

* :class:`FlushToServer` — **Sprite's choice.**  Freeze, write dirty
  pages to the backing file on the file server, resume on the target
  and demand-page from the server.  No residual dependency on the
  source; leverages the network FS that already exists.
* :class:`FullCopy` — Charlotte/LOCUS: freeze and ship the whole image
  source→target.  Simple; freeze time grows linearly with size.
* :class:`PreCopy` — V [TLC85]: copy the image while the process keeps
  running, then freeze and copy what got dirtied; repeat until the
  remainder is small.  Short freezes, more total bytes.
* :class:`CopyOnReference` — Accent [Zay87a]: move only the page tables
  at freeze time; the target faults pages from the *source* on
  reference.  Fastest migration, but the source must keep serving
  pages: a residual dependency for the process's lifetime.

A policy reports what moved when; costs it cannot pay during the
transfer (demand paging after resume) are recorded as *debt* on the VM
and settled by the process's first post-migration computation, which is
when real page faults would trickle in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from ..sim import Effect

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Pcb
    from .mechanism import MigrationManager

__all__ = [
    "VmOutcome",
    "VmPolicy",
    "FlushToServer",
    "FullCopy",
    "PreCopy",
    "CopyOnReference",
    "POLICIES",
    "make_policy",
]


@dataclass
class VmOutcome:
    """What a VM policy moved, and when."""

    policy: str
    bytes_before_freeze: int = 0
    bytes_during_freeze: int = 0
    #: Bytes the target will fault in after resume, and from where
    #: ("backing" = file server, "cor" = the source host).
    post_resume_debt: int = 0
    debt_from: Optional[str] = None
    rounds: int = 1
    residual_dependency: bool = False

    @property
    def bytes_total(self) -> int:
        return self.bytes_before_freeze + self.bytes_during_freeze + self.post_resume_debt


class VmPolicy:
    """Strategy interface: two phases around the freeze point."""

    name = "abstract"

    def pre_freeze(
        self, manager: "MigrationManager", pcb: "Pcb", target: int
    ) -> Generator[Effect, None, int]:
        """Work done while the process still runs (pre-copy rounds).

        Returns bytes moved.  Default: nothing.
        """
        return 0
        yield  # pragma: no cover - makes this a generator

    def during_freeze(
        self, manager: "MigrationManager", pcb: "Pcb", target: int
    ) -> Generator[Effect, None, VmOutcome]:
        raise NotImplementedError

    def _page_cpu(self, manager: "MigrationManager", nbytes: int) -> float:
        params = manager.params
        return params.page_handling_cpu * params.pages(nbytes)


class FlushToServer(VmPolicy):
    """Sprite: flush dirty pages to the backing file; demand-page later."""

    name = "flush-to-server"

    def during_freeze(self, manager, pcb, target):
        vm = pcb.vm
        flushed = 0
        if vm.dirty > 0 and vm.backing is not None:
            yield from vm.backing.page_out(vm.dirty)
            flushed = vm.dirty
            vm.clean()
        debt = vm.resident
        vm.evict_resident()
        vm.page_in_debt = debt
        vm.debt_from = "backing"
        return VmOutcome(
            policy=self.name,
            bytes_during_freeze=flushed,
            post_resume_debt=debt,
            debt_from="backing",
            residual_dependency=False,
        )


class FullCopy(VmPolicy):
    """Charlotte/LOCUS: monolithic image transfer inside the freeze."""

    name = "full-copy"

    def during_freeze(self, manager, pcb, target):
        vm = pcb.vm
        nbytes = vm.size
        if nbytes > 0:
            yield from manager.host.cpu.consume(self._page_cpu(manager, nbytes))
            yield from manager.lan.transfer(manager.address, target, nbytes)
            yield from manager.remote_page_install(target, nbytes)
        vm.resident = nbytes
        vm.clean()
        return VmOutcome(
            policy=self.name,
            bytes_during_freeze=nbytes,
            residual_dependency=False,
        )


class PreCopy(VmPolicy):
    """V-system: iterative copy while running, short final freeze.

    The re-dirty rate during a round comes from the process's declared
    ``vm.dirty_rate_hint`` (bytes/second); workloads set it to match
    their behaviour.  Rounds stop when the remainder is under two pages
    or :attr:`MAX_ROUNDS` is hit.
    """

    name = "pre-copy"
    MAX_ROUNDS = 5

    def __init__(self):
        self._pending_remainder = 0
        self._rounds_done = 0
        self._pre_bytes = 0

    def pre_freeze(self, manager, pcb, target):
        vm = pcb.vm
        remaining = vm.size
        moved = 0
        rounds = 0
        threshold = 2 * manager.params.page_size
        rate = vm.dirty_rate_hint
        while remaining > 0 and rounds < self.MAX_ROUNDS:
            rounds += 1
            yield from manager.host.cpu.consume(self._page_cpu(manager, remaining))
            start = manager.sim.now
            yield from manager.lan.transfer(manager.address, target, remaining)
            yield from manager.remote_page_install(target, remaining)
            moved += remaining
            round_time = manager.sim.now - start
            redirtied = min(int(rate * round_time), vm.size)
            remaining = redirtied
            if remaining <= threshold:
                break
        self._pending_remainder = remaining
        self._rounds_done = rounds
        self._pre_bytes = moved
        return moved

    def during_freeze(self, manager, pcb, target):
        vm = pcb.vm
        remainder = self._pending_remainder if self._rounds_done else vm.size
        rounds = self._rounds_done or 1
        if remainder > 0:
            yield from manager.host.cpu.consume(self._page_cpu(manager, remainder))
            yield from manager.lan.transfer(manager.address, target, remainder)
            yield from manager.remote_page_install(target, remainder)
        vm.resident = vm.size
        vm.clean()
        outcome = VmOutcome(
            policy=self.name,
            bytes_before_freeze=self._pre_bytes,
            bytes_during_freeze=remainder,
            rounds=rounds + (1 if remainder else 0),
            residual_dependency=False,
        )
        self._pending_remainder = 0
        self._rounds_done = 0
        self._pre_bytes = 0
        return outcome


class CopyOnReference(VmPolicy):
    """Accent/Zayas: ship page tables now, fault pages from the source."""

    name = "copy-on-reference"

    def during_freeze(self, manager, pcb, target):
        vm = pcb.vm
        # Page tables and registers only: covered by the PCB state bytes;
        # charge one page of map data per 1 MB of address space.
        map_bytes = max(1, manager.params.pages(vm.size) * 8)
        yield from manager.lan.transfer(manager.address, target, map_bytes)
        debt = vm.resident
        vm.page_in_debt = debt
        vm.debt_from = "cor"
        vm.cor_source = manager.address
        vm.evict_resident()
        return VmOutcome(
            policy=self.name,
            bytes_during_freeze=map_bytes,
            post_resume_debt=debt,
            debt_from="cor",
            residual_dependency=True,
        )


POLICIES = {
    policy.name: policy
    for policy in (FlushToServer, FullCopy, PreCopy, CopyOnReference)
}


def make_policy(name: str) -> VmPolicy:
    """Instantiate a policy by its registry name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown VM policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
