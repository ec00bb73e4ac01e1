"""Remote UNIX-style total forwarding [Lit87] — ablation A2.

Section 4.3 of the thesis considers the design Sprite *didn't* choose:
leave every bit of kernel state on the home machine and forward every
kernel call to a surrogate there.  Remote UNIX works exactly this way
(no kernel changes, a run-time library ships each call to a shadow
process at the submitting host).

The cost model is honest about the consequences: compute happens on the
execution host, but *all* file data makes a double hop (server → home →
execution host, or is read from the home's cache), and every trivial
call pays a full RPC.  Benchmarks compare this against Sprite's
transfer-most/forward-little split.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, Tuple

from ..config import KB
from ..fs import OpenMode
from ..kernel import Host, Program
from ..net import Reply
from ..sim import Effect, Task, spawn

__all__ = ["ForwardingSurrogate", "ForwardingProcess", "remote_unix_run"]

SERVICE = "runix.syscall"


class ForwardingSurrogate:
    """The home-side shadow: executes forwarded calls with home state.

    One surrogate per home host serves all of that host's Remote UNIX
    jobs; per-job stream tables live here, because in this design *no*
    state ever leaves home.
    """

    def __init__(self, host: Host):
        self.host = host
        #: (job, fd) -> stream, kept at home.
        self._streams: Dict[Tuple[int, int], Any] = {}
        self._fds: Dict[int, "itertools.count"] = {}
        self.calls_served = 0
        host.rpc.register(SERVICE, self._rpc_forwarded)

    def _rpc_forwarded(self, args: Dict[str, Any]) -> Generator[Effect, None, Any]:
        self.calls_served += 1
        op = args["op"]
        job = args["job"]
        fs = self.host.fs
        yield from self.host.cpu.consume(self.host.params.kernel_call_cpu)
        if op == "open":
            stream = yield from fs.open(args["path"], args["mode"])
            fd = next(self._fds.setdefault(job, itertools.count(3)))
            self._streams[(job, fd)] = stream
            return fd
        if op == "close":
            stream = self._streams.pop((job, args["fd"]))
            yield from fs.close(stream)
            return None
        if op == "read":
            stream = self._streams[(job, args["fd"])]
            nread = yield from fs.read(stream, args["nbytes"])
            # The data just arrived at *home*; the reply relays it on to
            # the execution host (second hop charged by the RPC reply).
            return Reply(result=nread, size=max(1, nread))
        if op == "write":
            stream = self._streams[(job, args["fd"])]
            nwritten = yield from fs.write(stream, args["nbytes"])
            return nwritten
        if op == "lseek":
            stream = self._streams[(job, args["fd"])]
            return (yield from fs.seek(stream, args["offset"]))
        if op == "gettimeofday":
            return self.host.sim.now
        if op == "gethostname":
            return self.host.name
        raise ValueError(f"unknown forwarded op {op!r}")


@dataclass
class ForwardingProcess:
    """Execution-host context handed to Remote UNIX job programs.

    Mirrors the parts of :class:`UserContext` the workloads use, but
    every kernel call is a forwarded RPC to the home surrogate.
    """

    home: Host
    runner: Host
    job_id: int

    @property
    def now(self) -> float:
        return self.runner.sim.now

    def _forward(
        self, op: str, size: int = 256, reply_size: int = 128, **fields: Any
    ) -> Generator[Effect, None, Any]:
        payload = {"op": op, "job": self.job_id, **fields}
        return (
            yield from self.runner.rpc.call(
                self.home.address, SERVICE, payload,
                size=size, reply_size=reply_size,
                timeout=self.runner.params.rpc_probe_interval,
            )
        )

    # -- the forwarded subset of the kernel interface ------------------
    def compute(self, demand: float) -> Generator[Effect, None, None]:
        yield from self.runner.cpu.consume(demand)

    def open(self, path: str, mode: int = OpenMode.READ) -> Generator[Effect, None, int]:
        return (yield from self._forward("open", path=path, mode=mode))

    def close(self, fd: int) -> Generator[Effect, None, None]:
        yield from self._forward("close", fd=fd)

    def read(self, fd: int, nbytes: int) -> Generator[Effect, None, int]:
        # Data comes back in the reply: home -> runner hop.
        return (
            yield from self._forward("read", fd=fd, nbytes=nbytes, reply_size=nbytes)
        )

    def write(self, fd: int, nbytes: int) -> Generator[Effect, None, int]:
        # Data travels in the request: runner -> home hop.
        return (
            yield from self._forward("write", fd=fd, nbytes=nbytes, size=nbytes)
        )

    def lseek(self, fd: int, offset: int) -> Generator[Effect, None, int]:
        return (yield from self._forward("lseek", fd=fd, offset=offset))

    def gettimeofday(self) -> Generator[Effect, None, float]:
        return (yield from self._forward("gettimeofday"))

    def gethostname(self) -> Generator[Effect, None, str]:
        return (yield from self._forward("gethostname"))


#: Per-run job-id allocator name in ``sim.state`` (a module-level
#: counter here would drift across clusters built in one process).
_JOB_ID_COUNTER = "baselines.forwarding_job_ids"


def remote_unix_run(
    surrogate: ForwardingSurrogate,
    runner: Host,
    program: Program,
    *args: Any,
    image_bytes: int = 256 * KB,
) -> Generator[Effect, None, Task]:
    """Start ``program`` on ``runner`` under total forwarding.

    The binary ships over the wire at start (Remote UNIX copies the
    executable); returns the sim task so callers can join it.
    """
    home = surrogate.host
    yield from home.lan.transfer(home.address, runner.address, image_bytes)
    job_ids = home.sim.state.counter(_JOB_ID_COUNTER)
    ctx = ForwardingProcess(home=home, runner=runner, job_id=next(job_ids))
    task = spawn(
        home.sim,
        program(ctx, *args),
        name=f"runix:{getattr(program, '__name__', 'job')}",
    )
    return task
