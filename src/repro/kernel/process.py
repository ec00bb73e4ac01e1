"""User processes: the program-facing kernel-call interface.

A *program* is a generator function ``def prog(proc, *args)`` receiving
a :class:`UserContext` (``proc``).  Everything a program does — compute,
sleep, file I/O, fork/exec/wait, signals — goes through ``proc`` so the
kernel can charge the right host's CPU, classify calls per Appendix A,
forward location-dependent calls home, and freeze the process at safe
points for migration.

Example::

    def worker(proc, seconds):
        yield from proc.compute(seconds)
        stream_fd = yield from proc.open("/out", OpenMode.WRITE | OpenMode.CREATE)
        yield from proc.write(stream_fd, 4096)
        yield from proc.close(stream_fd)
        return 0

Migration transparency: a process task never knows where it runs; every
operation resolves ``self.kernel`` freshly from ``pcb.current``, so
after the migration mechanism rebinds the PCB the same task seamlessly
charges the new host.
"""

from __future__ import annotations

from functools import partial, wraps
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..config import KB, ClusterParams
from ..fs import BackingFile, OpenMode
from ..sim import Effect, Interrupted, Sleep, SliceRun, Task, spawn
from . import signals as sig
from .appendix_a import APPENDIX_A, CallClass
from .kernel import NoSuchProcess, ProcessKilled, SpriteKernel
from .pcb import ExitStatus, Pcb

__all__ = ["UserContext", "Program", "ExitProcess", "KERNEL_CALLS"]

Program = Callable[..., Generator[Effect, Any, Any]]

#: Signals ignored unless caught (UNIX default-disposition subset).
_DEFAULT_IGNORE = frozenset({sig.SIGCHLD})

#: Address-space size after an exec; also what an exec reads when its
#: image file reports no size.
EXEC_IMAGE_BYTES = 256 * KB


#: Every kernel call the program API exposes, by name (filled by the gate).
KERNEL_CALLS: Dict[str, Callable[..., Generator[Effect, Any, Any]]] = {}


def kernel_call(body: Callable[..., Generator[Effect, Any, Any]]):
    """The one gate every kernel call of :class:`UserContext` goes through.

    At import the method must be classified by Appendix A (``KeyError``
    if not: a call cannot be added without saying where it runs) and is
    recorded in :data:`KERNEL_CALLS`.  At run time the body runs right
    under the gate's frame and ends at a safe point — signals delivered,
    a migration freeze honoured — so a process can always be frozen
    within one call; no signal and no ticket costs no generator.
    """
    APPENDIX_A[body.__name__]  # KeyError: classify the call in appendix_a.py first

    @wraps(body)
    def call(self: "UserContext", *args: Any, **kwargs: Any) -> Generator[Effect, Any, Any]:
        result = yield from body(self, *args, **kwargs)
        pcb = self.pcb
        if pcb.pending_signals:
            self._drain_signals()
        if pcb.migration_ticket is not None:
            yield from self._checkpoint()
        return result

    KERNEL_CALLS[body.__name__] = call
    return call


class ExitProcess(Exception):
    """Internal: raised by ``proc.exit`` to unwind the program."""

    def __init__(self, code: int):
        super().__init__(f"exit({code})")
        self.code = code


class _ExecImage(Exception):
    """Internal: raised by ``proc.exec`` to replace the program."""

    def __init__(self, program: Program, args: Tuple[Any, ...], name: Optional[str]):
        super().__init__("exec")
        self.program = program
        self.args = args
        self.name = name


class UserContext:
    """The ``proc`` handle a program uses for every kernel call."""

    def __init__(self, pcb: Pcb, kernels: Dict[int, SpriteKernel]):
        self.pcb = pcb
        self._kernels = kernels

    # ------------------------------------------------------------------
    # Where am I (resolved per call: this is what migration rebinds)
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> SpriteKernel:
        return self._kernels[self.pcb.current]

    @property
    def params(self) -> ClusterParams:
        return self.kernel.params

    @property
    def sim(self):
        return self.kernel.sim

    @property
    def now(self) -> float:
        """Raw simulator clock (zero-cost; use gettimeofday for the
        transparent, home-consistent time)."""
        return self.kernel.sim.now

    @property
    def pid(self) -> int:
        return self.pcb.pid

    # ------------------------------------------------------------------
    # Process lifecycle driver
    # ------------------------------------------------------------------
    def start(self, program: Program, args: Tuple[Any, ...] = ()) -> Task:
        """Spawn the task that runs ``program`` under this context."""
        task = spawn(
            self.sim,
            partial(self._run, program, args),
            name=f"proc:{self.pcb.pid}:{self.pcb.name}",
            daemon=False,
        )
        self.pcb.task = task
        return task

    def _run(self, program: Program, args: Tuple[Any, ...]) -> Generator[Effect, Any, Any]:
        """Program driver: the task's result is the program's return
        value (exit codes when the program exits/dies)."""
        code = 0
        result: Any = None
        while True:
            try:
                result = yield from program(self, *args)
                code = result if isinstance(result, int) else 0
                break
            except ExitProcess as exit_exc:
                code = exit_exc.code
                result = code
                break
            except ProcessKilled as killed:
                code = 128 + killed.signum
                result = code
                break
            except _ExecImage as image:
                program = image.program
                args = image.args
                if image.name:
                    self.pcb.name = image.name
                continue
        yield from self._terminate(code)
        return result if result is not None else code

    def _terminate(self, code: int) -> Generator[Effect, None, None]:
        pcb = self.pcb
        kernel = self.kernel
        for fd in sorted(pcb.streams):
            stream = pcb.streams.pop(fd)
            try:
                yield from kernel.fs.close(stream)
            except Exception:  # noqa: BLE001 - closing is best-effort at exit
                pass
        if pcb.vm.backing is not None and pcb.vm.backing.handle_id >= 0:
            try:
                yield from pcb.vm.backing.remove()
            except Exception:  # noqa: BLE001
                pass
        yield from kernel.exit_bookkeeping(pcb, code)

    # ------------------------------------------------------------------
    # Safe points: signals and migration freezes
    # ------------------------------------------------------------------
    def _checkpoint(self) -> Generator[Effect, None, None]:
        """Deliver pending signals and honour migration freezes.

        Called after every kernel call and between compute slices —
        these are the "safe points" where Sprite suspends a process.
        """
        self._drain_signals()
        ticket = self.pcb.migration_ticket
        if ticket is not None:
            ticket.freeze_started = self.sim.now
            ticket.parked.trigger()
            yield ticket.resume.wait()
            self._drain_signals()

    def _drain_signals(self) -> None:
        pcb = self.pcb
        while pcb.pending_signals:
            signum = pcb.pending_signals.pop(0)
            if signum in pcb.caught_signals and signum not in sig.UNCATCHABLE:
                pcb.signals_received.append(signum)
            elif signum in _DEFAULT_IGNORE:
                continue
            else:
                raise ProcessKilled(signum)

    def _on_interrupt(self, intr: Interrupted) -> None:
        """Interpret an interrupt that preempted an interruptible wait."""
        cause = intr.cause
        if isinstance(cause, tuple) and cause and cause[0] == "signal":
            return  # the signal is in pending_signals; checkpoint drains it
        if isinstance(cause, tuple) and cause and cause[0] == "migrate":
            return  # ticket already set; checkpoint parks us
        raise ProcessKilled(sig.SIGKILL)

    # ------------------------------------------------------------------
    # CPU and memory
    # ------------------------------------------------------------------
    def compute(
        self, demand: float, dirty_bytes_per_second: float = 0.0
    ) -> Generator[Effect, None, None]:
        """Burn ``demand`` CPU-seconds on the current host.

        Interruptible at any instant, accounted at quantum granularity:
        a signal or a migration freeze takes effect the moment it
        arrives, while ``cpu_time``, the host's ``total_demand`` and the
        memory dirtied advance one whole quantum at a time — lazily,
        through :class:`~repro.sim.SliceRun`: the run queues for the
        core and takes its round-robin turns there without an event per
        quantum, alone or among other computing processes, and this task
        is resumed when the demand is spent (or after one quantum, if a
        signal or freeze was already waiting for the next safe point).
        Optionally dirties memory as it runs (long-running jobs touch
        their pages).
        """
        if demand < 0:
            raise ValueError(f"negative CPU demand: {demand}")
        pcb = self.pcb
        kernels = self._kernels
        dirty = None
        if dirty_bytes_per_second > 0:

            def dirty(slices: int, consumed: float) -> None:
                if consumed > 0:
                    pcb.vm.touch(
                        int(dirty_bytes_per_second * consumed),
                        write=True, times=slices,
                    )

        run = SliceRun(demand, pcb, dirty)
        while run.remaining > 1e-9:
            if pcb.vm.page_in_debt > 0:
                # First touch after a migration: fault the working set
                # back in (from the backing file, or from the source for
                # copy-on-reference).
                yield from self._settle_vm_debt()
            # Re-resolved every run: migration rebinds pcb.current.
            run.cpu = cpu = kernels[pcb.current].cpu
            cpu.runnable += 1
            pcb.interruptible = True
            # From here on a signal or a freeze interrupts us; one that
            # came earlier (during a kernel call, or while paging in)
            # waits for the next safe point, the end of our first quantum.
            run.eager = (
                bool(pcb.pending_signals) or pcb.migration_ticket is not None
            )
            try:
                yield run
            except Interrupted as intr:
                self._on_interrupt(intr)
                # A killed or crashed process keeps only its whole
                # quanta; one that lives on is also charged the part of
                # the quantum it was burning (nothing, if it was still
                # waiting for the core).
                run.charge_partial()
            finally:
                cpu.runnable -= 1
                pcb.interruptible = False
            # The safe point between runs, spelled as in ``kernel_call``:
            # no signal and no freeze (the common case) costs no generator.
            if pcb.pending_signals:
                self._drain_signals()
            if pcb.migration_ticket is not None:
                yield from self._checkpoint()

    def _settle_vm_debt(self) -> Generator[Effect, None, None]:
        vm = self.pcb.vm
        debt, vm.page_in_debt = vm.page_in_debt, 0
        if debt <= 0:
            return
        if vm.debt_from == "cor" and vm.cor_source >= 0:
            yield from self.kernel.rpc.call(
                vm.cor_source, "mig.cor_fetch", debt, reply_size=debt,
                timeout=None,
            )
        elif vm.backing is not None:
            yield from vm.backing.page_in(debt)
        vm.resident = min(vm.size, vm.resident + debt)
        vm.debt_from = None

    @kernel_call
    def sleep(self, duration: float) -> Generator[Effect, None, None]:
        """Block for ``duration`` seconds; interruptible."""
        deadline = self.sim.now + duration
        while True:
            remaining = deadline - self.sim.now
            if remaining <= 0:
                break
            self.pcb.interruptible = True
            try:
                yield Sleep(remaining)
            except Interrupted as intr:
                self._on_interrupt(intr)
            finally:
                self.pcb.interruptible = False
            yield from self._checkpoint()

    def use_memory(self, nbytes: int) -> Generator[Effect, None, None]:
        """Grow the address space to ``nbytes`` (creates the backing file)."""
        pcb = self.pcb
        pcb.vm.size = max(pcb.vm.size, nbytes)
        pcb.vm.resident = pcb.vm.size
        if pcb.vm.backing is None:
            backing = BackingFile(self.kernel.fs, f"/swap/{pcb.pid}")
            yield from backing.create()
            pcb.vm.backing = backing
        yield from self._checkpoint()

    def dirty_memory(self, nbytes: int) -> Generator[Effect, None, None]:
        """Write ``nbytes`` of the address space (dirty pages)."""
        self.pcb.vm.touch(nbytes, write=True)
        yield from self.kernel.cpu.consume(
            self.params.page_handling_cpu * self.params.pages(nbytes)
        )
        yield from self._checkpoint()

    # ------------------------------------------------------------------
    # Home-class calls
    # ------------------------------------------------------------------
    def _home_call(self, call: str, args: Any = None) -> Generator[Effect, Any, Any]:
        """The generator that runs ``call`` where Appendix A puts it:
        at the home kernel (``args`` is the payload) for a remote
        process's call of class ``home``, else on this kernel."""
        kernel, pcb = self.kernel, self.pcb
        if pcb.is_remote and APPENDIX_A[call] == CallClass.HOME:
            return kernel.forward_home(pcb, call, args)
        return kernel.do_home_call(pcb.pid, call, args)

    # ------------------------------------------------------------------
    # Identity / time / usage
    # ------------------------------------------------------------------
    @kernel_call
    def getpid(self) -> Generator[Effect, None, int]:
        yield from self.kernel.cpu.consume(self.params.kernel_call_cpu)
        return self.pcb.pid

    @kernel_call
    def getppid(self) -> Generator[Effect, None, int]:
        yield from self.kernel.cpu.consume(self.params.kernel_call_cpu)
        return self.pcb.parent_pid

    @kernel_call
    def getuid(self) -> Generator[Effect, None, int]:
        yield from self.kernel.cpu.consume(self.params.kernel_call_cpu)
        return self.pcb.uid

    @kernel_call
    def gettimeofday(self) -> Generator[Effect, None, float]:
        return (yield from self._home_call("gettimeofday"))

    @kernel_call
    def gethostname(self) -> Generator[Effect, None, str]:
        return (yield from self._home_call("gethostname"))

    @kernel_call
    def getrusage(self) -> Generator[Effect, None, Dict[str, Any]]:
        return (yield from self._home_call("getrusage"))

    @kernel_call
    def getpgrp(self) -> Generator[Effect, None, int]:
        return (yield from self._home_call("getpgrp"))

    @kernel_call
    def setpgrp(self, pgrp: Optional[int] = None) -> Generator[Effect, None, int]:
        return (yield from self._home_call("setpgrp", pgrp))

    @kernel_call
    def times(self) -> Generator[Effect, None, Dict[str, float]]:
        """Process times, consistent with the home clock (class HOME)."""
        elapsed = yield from self._home_call("gettimeofday")
        return {
            "utime": self.pcb.cpu_time,
            "elapsed": elapsed - self.pcb.start_time,
        }

    # ------------------------------------------------------------------
    # Files (location-independent thanks to the network FS)
    # ------------------------------------------------------------------
    @kernel_call
    def open(self, path: str, mode: int = OpenMode.READ) -> Generator[Effect, None, int]:
        stream = yield from self.kernel.fs.open(self._resolve(path), mode)
        return self.pcb.new_fd(stream)

    @kernel_call
    def close(self, fd: int) -> Generator[Effect, None, None]:
        stream = self.pcb.streams.pop(fd)
        yield from self.kernel.fs.close(stream)

    @kernel_call
    def read(self, fd: int, nbytes: int) -> Generator[Effect, None, int]:
        return (yield from self.kernel.fs.read(self.pcb.stream(fd), nbytes))

    @kernel_call
    def write(self, fd: int, nbytes: int) -> Generator[Effect, None, int]:
        return (yield from self.kernel.fs.write(self.pcb.stream(fd), nbytes))

    @kernel_call
    def lseek(self, fd: int, offset: int) -> Generator[Effect, None, int]:
        return (yield from self.kernel.fs.seek(self.pcb.stream(fd), offset))

    @kernel_call
    def stat(self, path: str) -> Generator[Effect, None, Dict[str, Any]]:
        return (yield from self.kernel.fs.stat(self._resolve(path)))

    @kernel_call
    def unlink(self, path: str) -> Generator[Effect, None, None]:
        yield from self.kernel.fs.remove(self._resolve(path))

    @kernel_call
    def chdir(self, path: str) -> Generator[Effect, None, None]:
        yield from self.kernel.cpu.consume(self.params.kernel_call_cpu)
        self.pcb.cwd = self._resolve(path)

    @kernel_call
    def dup(self, fd: int) -> Generator[Effect, None, int]:
        """Duplicate a descriptor: both fds share one stream (and
        therefore one offset), as in UNIX."""
        yield from self.kernel.cpu.consume(self.params.kernel_call_cpu)
        stream = self.pcb.stream(fd)
        stream.refcount += 1
        return self.pcb.new_fd(stream)

    @kernel_call
    def dup2(self, fd: int, new_fd: int) -> Generator[Effect, None, int]:
        """Duplicate ``fd`` onto ``new_fd`` (closing what was there)."""
        yield from self.kernel.cpu.consume(self.params.kernel_call_cpu)
        stream = self.pcb.stream(fd)
        old = self.pcb.streams.get(new_fd)
        if old is not None and old is not stream:
            yield from self.kernel.fs.close(old)
        stream.refcount += 1
        self.pcb.streams[new_fd] = stream
        self.pcb.next_fd = max(self.pcb.next_fd, new_fd + 1)
        return new_fd

    @kernel_call
    def pipe(self) -> Generator[Effect, None, Tuple[int, int]]:
        """Create a pipe; returns (read_fd, write_fd).  The buffer lives
        at the I/O server, so endpoints survive migration (ch. 3)."""
        read_stream, write_stream = yield from self.kernel.fs.make_pipe()
        return (self.pcb.new_fd(read_stream), self.pcb.new_fd(write_stream))

    @kernel_call
    def pdev_request(
        self, fd: int, message: Any, size: int = 256, reply_size: int = 256
    ) -> Generator[Effect, None, Any]:
        return (
            yield from self.kernel.fs.pdev_request(
                self.pcb.stream(fd), message, size=size, reply_size=reply_size,
                timeout=None,
            )
        )

    def _resolve(self, path: str) -> str:
        if path.startswith("/"):
            return path
        base = self.pcb.cwd.rstrip("/")
        return f"{base}/{path}"

    # ------------------------------------------------------------------
    # Family: fork / exec / wait / exit / kill
    # ------------------------------------------------------------------
    @kernel_call
    def fork(
        self, program: Program, *args: Any, name: Optional[str] = None
    ) -> Generator[Effect, None, int]:
        """Fork a child running ``program`` (fork+function, as the model's
        stand-in for fork's address-space cloning)."""
        child_name = name or f"{self.pcb.name}-child"
        child = yield from self.kernel.fork_bookkeeping(self.pcb, child_name)
        for fd, stream in self.pcb.streams.items():
            stream.refcount += 1
            child.streams[fd] = stream
        child.next_fd = self.pcb.next_fd
        child_ctx = UserContext(child, self._kernels)
        child_ctx.start(program, args)
        return child.pid

    @kernel_call
    def exec(
        self,
        program: Program,
        *args: Any,
        name: Optional[str] = None,
        image_path: Optional[str] = None,
        arg_bytes: int = 2 * KB,
        host: Optional[int] = None,
    ) -> Generator[Effect, None, None]:
        """Replace the process image, optionally on another host.

        ``host`` triggers *exec-time migration*: the cheapest migration
        in Sprite because the old address space is discarded rather than
        transferred (thesis §4.2.1) — only streams, the PCB, and the
        argument/environment bytes move.
        """
        pcb = self.pcb
        yield from self.kernel.cpu.consume(self.params.exec_cpu)
        if host is not None and host != pcb.current:
            manager = self.kernel.migration
            if manager is None:
                raise NoSuchProcess("no migration support on this kernel")
            yield from manager.migrate_for_exec(pcb, host, arg_bytes=arg_bytes)
        # The old image is gone; the new one demand-pages from the FS.
        pcb.vm.size = EXEC_IMAGE_BYTES
        pcb.vm.resident = 0
        pcb.vm.dirty = 0
        if image_path is not None:
            yield from self._load_image(image_path)
        # The raise skips the gate's safe point: stop here, in the old image.
        yield from self._checkpoint()
        raise _ExecImage(program, args, name or getattr(program, "__name__", None))

    def _load_image(self, image_path: str) -> Generator[Effect, None, None]:
        """Read the program text through the FS (client caches make
        repeated execs of the same binary cheap, as on real Sprite)."""
        fs = self.kernel.fs
        stream = yield from fs.open(image_path, OpenMode.READ)
        try:
            nbytes = stream.size or EXEC_IMAGE_BYTES
            yield from fs.read(stream, nbytes)
            self.pcb.vm.size = max(self.pcb.vm.size, nbytes)
        finally:
            yield from fs.close(stream)

    @kernel_call
    def wait(self) -> Generator[Effect, None, ExitStatus]:
        """Wait for any child to exit (executes at home, per Appendix A)."""
        return (yield from self._home_call("wait", {"pid": self.pcb.pid}))

    def wait_all(self) -> Generator[Effect, None, List[ExitStatus]]:
        """Convenience: wait for every live child."""
        statuses = []
        while self.pcb.children:
            status = yield from self.wait()
            statuses.append(status)
        return statuses

    @kernel_call
    def exit(self, code: int = 0) -> Generator[Effect, None, None]:
        yield from self.kernel.cpu.consume(self.params.kernel_call_cpu)
        raise ExitProcess(code)

    @kernel_call
    def kill(self, pid: int, signum: int = sig.SIGTERM) -> Generator[Effect, None, None]:
        yield from self.kernel.signal(pid, signum)

    @kernel_call
    def killpg(self, pgrp: int, signum: int = sig.SIGTERM) -> Generator[Effect, None, int]:
        """Signal a whole process group (executed at the home, which
        knows the membership; class HOME, like kill)."""
        return (yield from self._home_call("killpg", {"pgrp": pgrp, "sig": signum}))

    def catch_signal(self, signum: int) -> None:
        """Register interest in a signal instead of dying from it."""
        self.pcb.caught_signals.add(signum)

    def signals_seen(self) -> List[int]:
        return list(self.pcb.signals_received)

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    @kernel_call
    def migrate(self, target: int) -> Generator[Effect, None, None]:
        """Move this process to ``target`` (self-migration).

        Appendix A: the migrate call is forwarded home when remote,
        since migration is managed relative to the home machine.
        """
        pcb = self.pcb
        manager = self.kernel.migration
        if manager is None:
            raise NoSuchProcess("no migration support on this kernel")
        if pcb.is_remote:
            # Bookkeeping round trip to the home (cost model for the
            # forwarded initiation; the transfer itself is source->target).
            yield from self._home_call("gettimeofday")
        if target == pcb.current:
            return
        yield from manager.migrate_self(pcb, target)

    @kernel_call
    def ps(self) -> Generator[Effect, None, List[Dict[str, Any]]]:
        """Process listing of the current host."""
        yield from self.kernel.cpu.consume(self.params.kernel_call_cpu)
        return self.kernel.ps()
