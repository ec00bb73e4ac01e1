"""The per-host model kernel.

Each host runs one :class:`SpriteKernel`.  Kernels cooperate through
RPC exactly where the thesis says they must:

* process identifiers encode the home host, so any kernel can route an
  operation on any pid toward its home;
* a migrated process leaves a shadow PCB at home; the home kernel
  forwards location-dependent calls and signals to the current host and
  executes home-class calls on behalf of remote processes;
* fork by a remote process allocates the child's pid at the parent's
  home; exits are reported home; ``wait`` executes at home where the
  family tree lives.

The migration mechanism itself lives in :mod:`repro.migration`; the
kernel exposes the hooks it needs (`migration` attribute, PCB install
and detach primitives).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, List, Optional

from ..config import ClusterParams
from ..fs import FsClient, PdevRegistry
from ..net import Lan, NetNode, RpcError, RpcPort
from ..obs.spans import KERNEL_FORWARD
from ..sim import Cpu, Effect, SimEvent, Simulator, Sleep
from . import signals as sig
from .pcb import ExitStatus, Pcb, ProcState, Vm

__all__ = ["SpriteKernel", "ProcessKilled", "NoSuchProcess", "PID_STRIDE", "home_of_pid"]

#: pid = home_address * PID_STRIDE + sequence (Sprite embedded the home
#: machine id in the pid for exactly this routing purpose).
PID_STRIDE = 1_000_000


def home_of_pid(pid: int) -> int:
    return pid // PID_STRIDE


def _set_pgrp(kernel: "SpriteKernel", pcb: Optional[Pcb], pid: int, args: Any) -> int:
    if pcb is None:
        return 0
    pcb.pgrp = args if args else pid
    return pcb.pgrp


#: The home side of ``proc.home_call``: call -> handler(kernel, the home's
#: PCB or shadow for ``pid`` (None once reaped), pid, args).
_HOME_CALLS = {
    "gettimeofday": lambda kernel, pcb, pid, args: kernel.sim.now,
    "gethostname": lambda kernel, pcb, pid, args: kernel.node.name,
    "getpgrp": lambda kernel, pcb, pid, args: pcb.pgrp if pcb else 0,
    "setpgrp": _set_pgrp,
    "getrusage": lambda kernel, pcb, pid, args: {
        "cpu_time": pcb.cpu_time if pcb else 0.0,
        "migrations": pcb.migrations if pcb else 0,
    },
}


class ProcessKilled(Exception):
    """Raised inside a process task when a fatal signal is delivered."""

    def __init__(self, signum: int):
        super().__init__(f"killed by {sig.name_of(signum)}")
        self.signum = signum


class NoSuchProcess(Exception):
    """Operation on a pid that does not exist (ESRCH)."""


class SpriteKernel:
    """One host's kernel: process table, families, signals, forwarding."""

    def __init__(
        self,
        sim: Simulator,
        lan: Lan,
        node: NetNode,
        cpu: Cpu,
        rpc: RpcPort,
        fs: FsClient,
        pdevs: PdevRegistry,
        params: Optional[ClusterParams] = None,
    ):
        self.sim = sim
        self.lan = lan
        self.node = node
        self.cpu = cpu
        self.rpc = rpc
        self.fs = fs
        self.pdevs = pdevs
        self.params = params or lan.params
        self.tracer = lan.tracer
        self.procs: Dict[int, Pcb] = {}
        self._pid_seq = itertools.count(1)
        #: Set by repro.migration when the host supports migration.
        self.migration: Any = None
        # Statistics.
        self.calls_forwarded_home = 0
        self.calls_forwarded_away = 0
        self.signals_delivered = 0
        self._register_services()

    # ------------------------------------------------------------------
    @property
    def address(self) -> int:
        return self.node.address

    def __repr__(self) -> str:
        return f"<SpriteKernel {self.node.name}@{self.address}>"

    def _register_services(self) -> None:
        self.rpc.register("proc.alloc_child", self._rpc_alloc_child)
        self.rpc.register("proc.exit_notify", self._rpc_exit_notify)
        self.rpc.register("proc.wait", self._rpc_wait)
        self.rpc.register("proc.home_call", self._rpc_home_call)
        self.rpc.register("proc.signal", self._rpc_signal)
        self.rpc.register("proc.signal_group", self._rpc_signal_group)

    # ------------------------------------------------------------------
    # Process table primitives
    # ------------------------------------------------------------------
    def alloc_pid(self) -> int:
        return self.address * PID_STRIDE + next(self._pid_seq)

    def make_pcb(self, name: str, parent: Optional[Pcb] = None, uid: int = 0) -> Pcb:
        """A fresh PCB homed on this host."""
        pcb = Pcb(
            pid=self.alloc_pid(),
            name=name,
            uid=uid,
            home=self.address,
            current=self.address,
            parent_pid=parent.pid if parent else 0,
            start_time=self.sim.now,
        )
        pcb.exit_event = SimEvent(self.sim, name=f"exit:{pcb.pid}")
        if parent is not None:
            parent.children.add(pcb.pid)
            pcb.uid = parent.uid
            pcb.env = dict(parent.env)
            pcb.cwd = parent.cwd
            pcb.pgrp = parent.pgrp or parent.pid
        self.procs[pcb.pid] = pcb
        return pcb

    def install_pcb(self, pcb: Pcb) -> None:
        """Adopt a PCB arriving via migration."""
        pcb.current = self.address
        pcb.state = ProcState.RUNNING
        self.procs[pcb.pid] = pcb

    def detach_pcb(self, pcb: Pcb, moved_to: int) -> None:
        """Mark a PCB as gone to another host.

        At home the entry becomes a *shadow*: a separate record that
        keeps the family links (children set and exit event are shared
        with the travelling PCB) and remembers where the process went,
        so the home can route signals and execute waits.  Elsewhere the
        entry is simply removed — intermediate hosts keep no residual
        state (thesis §4.4).
        """
        if pcb.home == self.address:
            shadow = Pcb(
                pid=pcb.pid,
                name=pcb.name,
                uid=pcb.uid,
                home=pcb.home,
                current=moved_to,
                state=ProcState.MIGRATED,
                parent_pid=pcb.parent_pid,
                start_time=pcb.start_time,
            )
            shadow.children = pcb.children      # shared: updated by forks
            shadow.exit_event = pcb.exit_event  # shared: fired at death
            shadow.pgrp = pcb.pgrp
            shadow.cpu_time = pcb.cpu_time
            shadow.task = pcb.task
            existing = self.procs.get(pcb.pid)
            if existing is not None and existing.state in (
                ProcState.ZOMBIE, ProcState.DEAD,
            ):
                # The exit already raced past us (e.g. journal recovery
                # re-detaching after the remote copy finished): the
                # zombie entry is the newer truth — keep it.
                return
            self.procs[pcb.pid] = shadow
        else:
            self.procs.pop(pcb.pid, None)

    def resident(self, pid: int) -> Pcb:
        pcb = self.procs.get(pid)
        if pcb is None or pcb.state != ProcState.RUNNING:
            raise NoSuchProcess(f"pid {pid} not resident on {self.node.name}")
        return pcb

    def foreign_pcbs(self) -> List[Pcb]:
        """Processes executing here away from their homes."""
        return [
            p
            for p in self.procs.values()
            if p.state == ProcState.RUNNING
            and p.current == self.address
            and p.home != self.address
        ]

    def ps(self) -> List[Dict[str, Any]]:
        """Process listing as seen on this host (includes shadows —
        migration is invisible to `ps`, per the transparency goal)."""
        self.cpu.sync()  # a process mid-compute shows its quanta so far
        listing = []
        for pcb in sorted(self.procs.values(), key=lambda p: p.pid):
            if pcb.state in (ProcState.RUNNING, ProcState.MIGRATED):
                listing.append(
                    {
                        "pid": pcb.pid,
                        "name": pcb.name,
                        "state": pcb.state.value,
                        "home": pcb.home,
                        "current": pcb.current,
                        "cpu_time": round(pcb.cpu_time, 6),
                    }
                )
        return listing

    # ------------------------------------------------------------------
    # Crash / reboot lifecycle (driven by repro.faults)
    # ------------------------------------------------------------------
    def on_crash(self) -> List[Pcb]:
        """Lose all volatile kernel state: the host just crashed.

        Every resident process task is aborted in place (no exit
        bookkeeping runs — the kernel that would run it is gone) and the
        whole process table, shadows included, is cleared.  Returns the
        PCBs that were executing here so the fault layer can account for
        them.  Monotonic counters survive, as telemetry outside the sim.
        """
        lost: List[Pcb] = []
        for pcb in sorted(self.procs.values(), key=lambda p: p.pid):
            if pcb.state == ProcState.RUNNING and pcb.current == self.address:
                if pcb.task is not None:
                    pcb.task.abort(("host-crashed", self.address))
                lost.append(pcb)
        self.procs.clear()
        if self.migration is not None:
            self.migration.on_crash()
        return lost

    def on_reboot(self) -> None:
        """Host power restored: replay persistent state.

        The only durable kernel-adjacent state in this model is the
        migration journal; hand it to the migration manager so in-flight
        transactions from before the crash are resolved.
        """
        if self.migration is not None:
            self.migration.on_reboot()

    def on_peer_crashed(self, address: int) -> Dict[str, int]:
        """React to another host's crash (driven after detection delay).

        Two consequences, per the thesis's dependency argument:

        * foreign processes executing *here* whose home was ``address``
          lost the home their kernel calls depend on — they are killed
          (orphan detection);
        * shadows *here* whose process was executing on ``address`` are
          reaped with a crash exit status, so waiting parents unblock
          instead of hanging on a host that will never report an exit.
        """
        orphaned = 0
        reaped = 0
        for pcb in sorted(self.procs.values(), key=lambda p: p.pid):
            if (
                pcb.state == ProcState.RUNNING
                and pcb.current == self.address
                and pcb.home == address
            ):
                if pcb.task is not None:
                    pcb.task.abort(("home-crashed", address))
                self.procs.pop(pcb.pid, None)
                orphaned += 1
            elif pcb.state == ProcState.MIGRATED and pcb.current == address:
                self.reap_shadow(pcb)
                reaped += 1
        if self.migration is not None:
            self.migration.peer_crashed(address)
        if (orphaned or reaped) and self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, f"kernel:{self.node.name}", "peer-crashed",
                peer=address, orphaned=orphaned, reaped=reaped,
            )
        return {"orphaned": orphaned, "reaped": reaped}

    def reap_shadow(self, pcb: Pcb) -> None:
        """Record a crash exit for a shadow whose process died where it
        ran (``pcb.current``), so waiting parents unblock instead of
        hanging on a copy that will never report an exit."""
        status = ExitStatus(
            pid=pcb.pid,
            code=128 + sig.SIGKILL,
            cpu_time=pcb.cpu_time,
            exit_host=pcb.current,
        )
        self._record_zombie(pcb, status)

    # ------------------------------------------------------------------
    # Family bookkeeping (fork / exit / wait), home-centric
    # ------------------------------------------------------------------
    def fork_bookkeeping(
        self, parent: Pcb, name: str
    ) -> Generator[Effect, None, Pcb]:
        """Create the child PCB; involves the home when the parent is remote."""
        yield from self.cpu.consume(self.params.fork_cpu)
        if parent.home == self.address:
            child = self.make_pcb(name, parent=parent)
        else:
            # Ask the parent's home to allocate the pid and shadow entry.
            self.calls_forwarded_home += 1
            payload = yield from self.rpc.call(
                parent.home,
                "proc.alloc_child",
                {"parent_pid": parent.pid, "name": name, "current": self.address},
            )
            child = Pcb(
                pid=payload["pid"],
                name=name,
                uid=parent.uid,
                home=parent.home,
                current=self.address,
                parent_pid=parent.pid,
                start_time=self.sim.now,
            )
            child.exit_event = SimEvent(self.sim, name=f"exit:{child.pid}")
            child.env = dict(parent.env)
            child.cwd = parent.cwd
            child.pgrp = payload["pgrp"]
            self.procs[child.pid] = child
        # Copy-on-write address space: child starts with the parent's
        # size; residency rebuilt on demand.
        child.vm = Vm(size=parent.vm.size, resident=0, dirty=0)
        return child

    def _rpc_alloc_child(self, args: Dict[str, Any]) -> Generator[Effect, None, Dict[str, Any]]:
        parent = self.procs.get(args["parent_pid"])
        yield from self.cpu.consume(self.params.fork_cpu)
        pid = self.alloc_pid()
        shadow = Pcb(
            pid=pid,
            name=args["name"],
            home=self.address,
            current=args["current"],
            state=ProcState.MIGRATED,
            parent_pid=args["parent_pid"],
            start_time=self.sim.now,
        )
        shadow.exit_event = SimEvent(self.sim, name=f"exit:{pid}")
        if parent is not None:
            parent.children.add(pid)
            shadow.uid = parent.uid
            shadow.pgrp = parent.pgrp or parent.pid
        self.procs[pid] = shadow
        return {"pid": pid, "pgrp": shadow.pgrp}

    def exit_bookkeeping(self, pcb: Pcb, code: int) -> Generator[Effect, None, None]:
        """Record a death; reports home when the process died remote."""
        status = ExitStatus(
            pid=pcb.pid, code=code, cpu_time=pcb.cpu_time, exit_host=self.address
        )
        pcb.exit_status = status
        if pcb.home == self.address:
            self._record_zombie(pcb, status)
        else:
            self.procs.pop(pcb.pid, None)
            self.calls_forwarded_home += 1
            # The home may be crashed or partitioned away right now.
            # Sprite blocks RPCs to a down peer until its recovery
            # completes; model that by retrying until the home answers
            # (a rebooted home without the shadow just ignores it) or
            # this kernel itself goes down.
            while True:
                try:
                    yield from self.rpc.call(
                        pcb.home,
                        "proc.exit_notify",
                        {"pid": pcb.pid, "code": code, "cpu_time": pcb.cpu_time,
                         "exit_host": self.address},
                    )
                    break
                except RpcError:
                    if not self.node.up:
                        return
                    yield Sleep(self.params.exit_notify_retry)

    def _record_zombie(self, pcb: Pcb, status: ExitStatus) -> None:
        pcb.state = ProcState.ZOMBIE
        pcb.exit_status = status
        pcb.current = self.address
        if not pcb.exit_event.fired:
            pcb.exit_event.trigger(status)
        parent = self.procs.get(pcb.parent_pid)
        if parent is not None:
            if parent.child_event is not None and not parent.child_event.fired:
                parent.child_event.trigger(pcb.pid)
                parent.child_event = None
            if sig.SIGCHLD in parent.caught_signals:
                self.post_signal_local(parent, sig.SIGCHLD)
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, f"kernel:{self.node.name}", "exit",
                pid=pcb.pid, code=status.code,
            )

    def _rpc_exit_notify(self, args: Dict[str, Any]) -> Generator[Effect, None, None]:
        yield from self.cpu.consume(self.params.kernel_call_cpu)
        pcb = self.procs.get(args["pid"])
        if pcb is None:
            return None
        pcb.cpu_time = args["cpu_time"]
        status = ExitStatus(
            pid=args["pid"], code=args["code"], cpu_time=args["cpu_time"],
            exit_host=args["exit_host"],
        )
        self._record_zombie(pcb, status)
        return None

    def _rpc_wait(self, args: Dict[str, Any]) -> Generator[Effect, None, ExitStatus]:
        """Block until some child of ``args["pid"]`` has exited; reap and
        return it.  Runs on the home kernel, where the family tree lives."""
        pcb = self.procs.get(args["pid"])
        if pcb is None:
            raise NoSuchProcess(f"pid {args['pid']} unknown at its home")
        while True:
            for child_pid in sorted(pcb.children):
                child = self.procs.get(child_pid)
                if child is not None and child.state == ProcState.ZOMBIE:
                    pcb.children.discard(child_pid)
                    child.state = ProcState.DEAD
                    assert child.exit_status is not None
                    return child.exit_status
                if child is None:
                    pcb.children.discard(child_pid)
            if not pcb.children:
                raise NoSuchProcess(f"pid {pcb.pid} has no children to wait for")
            pcb.child_event = SimEvent(self.sim, name=f"chld:{pcb.pid}")
            yield pcb.child_event.wait()

    # ------------------------------------------------------------------
    # Location-dependent (home-class) calls
    # ------------------------------------------------------------------
    def do_home_call(self, pid: int, call: str, args: Any) -> Generator[Effect, None, Any]:
        """Execute a home-class call *on this kernel* (the home)."""
        # The two that block or fan out are services of their own.
        if call == "wait":
            return (yield from self._rpc_wait(args))
        if call == "killpg":
            return (yield from self._rpc_signal_group(args))
        yield from self.cpu.consume(self.params.kernel_call_cpu)
        handler = _HOME_CALLS.get(call)
        if handler is None:
            raise NoSuchProcess(f"unknown home call {call!r}")
        return handler(self, self.procs.get(pid), pid, args)

    def _rpc_home_call(self, args: Dict[str, Any]) -> Generator[Effect, None, Any]:
        # Keep the shadow's usage roughly current for getrusage at home.
        pcb = self.procs.get(args["pid"])
        if pcb is not None and "cpu_time" in args:
            pcb.cpu_time = max(pcb.cpu_time, args["cpu_time"])
        return (yield from self.do_home_call(args["pid"], args["call"], args.get("args")))

    def forward_home(
        self, pcb: Pcb, call: str, args: Any = None
    ) -> Generator[Effect, None, Any]:
        """Send a home-class call from a remote process to its home (the
        one place such a call is counted)."""
        self.calls_forwarded_home += 1
        if call == "wait":  # the child may run for hours
            return (yield from self.rpc.call(pcb.home, "proc.wait", args, timeout=None))
        if call == "killpg":
            return (yield from self.rpc.call(pcb.home, "proc.signal_group", args))
        tracer = self.tracer
        started = self.sim.now if tracer.spans_enabled else 0.0
        value = yield from self.rpc.call(
            pcb.home,
            "proc.home_call",
            {"pid": pcb.pid, "call": call, "args": args,
             "cpu_time": pcb.cpu_time},
        )
        if tracer.spans_enabled:
            tracer.record_span(
                KERNEL_FORWARD,
                f"kern:{self.node.name}",
                started,
                self.sim.now,
                call=call,
                pid=pcb.pid,
                home=pcb.home,
            )
        return value

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def signal(self, target_pid: int, signum: int) -> Generator[Effect, None, None]:
        """Route a signal to ``target_pid`` wherever it lives.

        Routing is exactly Sprite's: try locally; else go to the pid's
        home, which forwards to the current host if migrated.
        """
        pcb = self.procs.get(target_pid)
        if pcb is not None and pcb.state == ProcState.RUNNING and pcb.current == self.address:
            yield from self.cpu.consume(self.params.kernel_call_cpu)
            self.post_signal_local(pcb, signum)
            return
        if pcb is not None and pcb.state == ProcState.MIGRATED:
            # We are the home: forward to the current host.
            self.calls_forwarded_away += 1
            yield from self.rpc.call(
                pcb.current, "proc.signal", {"pid": target_pid, "sig": signum}
            )
            return
        if pcb is not None and pcb.state in (ProcState.ZOMBIE, ProcState.DEAD):
            return  # delivering to the dead is a no-op
        home = home_of_pid(target_pid)
        if home == self.address:
            raise NoSuchProcess(f"pid {target_pid} unknown at its home")
        yield from self.rpc.call(home, "proc.signal", {"pid": target_pid, "sig": signum})

    def _rpc_signal(self, args: Dict[str, Any]) -> Generator[Effect, None, None]:
        yield from self.signal(args["pid"], args["sig"])
        return None

    def _rpc_signal_group(self, args: Dict[str, Any]) -> Generator[Effect, None, int]:
        """Deliver ``args["sig"]`` to every member of group ``args["pgrp"]``.

        Runs on the group's home kernel, which knows the membership
        (shadows included); remote members get theirs forwarded.
        Returns the number of processes signalled.
        """
        members = [
            pcb.pid
            for pcb in self.procs.values()
            if pcb.pgrp == args["pgrp"] and pcb.alive
        ]
        for pid in members:
            yield from self.signal(pid, args["sig"])
        return len(members)

    def post_signal_local(self, pcb: Pcb, signum: int) -> None:
        """Queue a signal on a resident process and preempt it if possible."""
        pcb.pending_signals.append(signum)
        self.signals_delivered += 1
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, f"kernel:{self.node.name}", "signal",
                pid=pcb.pid, sig=sig.name_of(signum),
            )
        if pcb.task is not None and pcb.interruptible:
            pcb.task.interrupt(("signal", signum))
