"""Process control blocks and virtual-memory descriptors.

The thesis divides a process's state into modules, each packaged and
transferred by its own kernel routine during migration (§4.2).  The
:class:`Pcb` mirrors that decomposition: identity (pid/home), execution
state, virtual memory (:class:`Vm`), open streams, signal state, and
process-family links.

A migrated process leaves a *shadow* PCB on its home machine (state
``MIGRATED``) so the home kernel can forward operations and keep the
process visible in process listings — the heart of Sprite's
transparency story.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from ..fs import BackingFile, Stream
from ..sim import SimEvent

__all__ = [
    "ProcState", "Vm", "Pcb", "MigrationTicket", "ExitStatus",
]


class ProcState(enum.Enum):
    """Lifecycle states of a PCB entry."""

    RUNNING = "running"        # resident and runnable/blocked here
    MIGRATED = "migrated"      # shadow entry: process executes elsewhere
    ZOMBIE = "zombie"          # exited, waiting to be reaped
    DEAD = "dead"              # reaped; entry kept briefly for debugging


@dataclass
class Vm:
    """A process's address space, paged via a backing file.

    Sizes are in bytes.  ``resident`` is how much is in host memory;
    ``dirty`` is how much of that has no up-to-date copy in the backing
    file — the part a flush-style migration must write out.
    """

    size: int = 0
    resident: int = 0
    dirty: int = 0
    backing: Optional[BackingFile] = None
    #: Shared writable memory disqualifies a process from migration
    #: (thesis §4.2.1); almost never set, exactly as in Sprite.
    shared_writable: bool = False
    #: Declared dirtying rate (bytes/sec) used by the pre-copy policy to
    #: model re-dirtying during its rounds.
    dirty_rate_hint: float = 0.0
    #: Demand-paging owed after a migration, settled on first compute.
    page_in_debt: int = 0
    debt_from: Optional[str] = None   # "backing" or "cor"
    cor_source: int = -1              # source host for copy-on-reference

    def touch(self, nbytes: int, write: bool = False, times: int = 1) -> None:
        """Reference ``nbytes`` of memory, growing residency (and dirtying
        pages on writes), ``times`` times over.

        Integer arithmetic, so the closed form is exactly what ``times``
        separate calls would leave.
        """
        self.resident = min(self.size, max(self.resident, nbytes))
        if write:
            self.dirty = min(self.size, self.dirty + times * nbytes)

    def clean(self) -> None:
        self.dirty = 0

    def evict_resident(self) -> None:
        self.resident = 0
        self.dirty = 0


@dataclass
class ExitStatus:
    pid: int
    code: int
    cpu_time: float = 0.0
    #: Host the process was on when it exited (for usage statistics).
    exit_host: int = -1


@dataclass
class MigrationTicket:
    """Handshake between a kernel migrating a process and the process task.

    The source's driver sets ``pcb.migration_ticket``; the process fires
    ``parked`` at its next safe point and waits on ``resume``.  Every
    other fact about the transfer lives once, on the source's
    :class:`~repro.migration.txn.MigrationTxn` and the target's
    :class:`~repro.migration.lease.TicketLease`.
    """

    parked: SimEvent                # process reached its freeze point
    resume: SimEvent                # transfer done (or aborted), continue


@dataclass
class Pcb:
    """One process's kernel state."""

    pid: int
    name: str
    uid: int = 0
    home: int = -1                  # LAN address of the home host (fixed)
    current: int = -1               # LAN address where it executes now
    state: ProcState = ProcState.RUNNING
    parent_pid: int = 0
    children: Set[int] = field(default_factory=set)
    vm: Vm = field(default_factory=Vm)
    #: fd -> stream; fds are small ints as in UNIX.
    streams: Dict[int, Stream] = field(default_factory=dict)
    next_fd: int = 3                # 0-2 notionally stdin/out/err
    cwd: str = "/"
    env: Dict[str, str] = field(default_factory=dict)
    pgrp: int = 0
    #: Pending (not yet delivered) signals, in arrival order.
    pending_signals: List[int] = field(default_factory=list)
    #: Signals the program elected to catch instead of dying from.
    caught_signals: Set[int] = field(default_factory=set)
    exit_event: SimEvent = None     # type: ignore[assignment]
    exit_status: Optional[ExitStatus] = None
    cpu_time: float = 0.0
    start_time: float = 0.0
    #: Set while a migration is being negotiated/performed.
    migration_ticket: Optional[MigrationTicket] = None
    #: Number of completed migrations (for statistics / double migration).
    migrations: int = 0
    #: True while the process task is parked in an interruptible wait
    #: (compute slice, sleep) where signals/migration may preempt it.
    interruptible: bool = False
    #: Event armed by a parent blocked in wait(); fired on child exit.
    child_event: Optional[SimEvent] = None
    #: Signals delivered to (and caught by) the program, for inspection.
    signals_received: List[int] = field(default_factory=list)
    task: Any = None                # the sim Task executing the program
    #: Set while a checkpoint image of this process is being written;
    #: mutually exclusive with migration (the txn lease and the image
    #: must never race over the same process state).
    checkpoint_lock: bool = False
    #: CPU seconds already banked by the checkpoint image this process
    #: was last restored from (0.0 for a never-restored process).
    #: Restart-aware programs read it to skip completed work.
    restored_progress: float = 0.0

    @property
    def is_remote(self) -> bool:
        """Executing away from home (from the process's perspective)."""
        return self.current != self.home

    @property
    def alive(self) -> bool:
        return self.state in (ProcState.RUNNING, ProcState.MIGRATED)

    def new_fd(self, stream: Stream) -> int:
        fd = self.next_fd
        self.next_fd += 1
        self.streams[fd] = stream
        return fd

    def stream(self, fd: int) -> Stream:
        if fd not in self.streams:
            raise KeyError(f"pid {self.pid}: bad file descriptor {fd}")
        return self.streams[fd]
