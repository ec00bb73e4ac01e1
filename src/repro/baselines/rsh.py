"""rsh-style remote invocation [Com86] — the no-migration baseline.

``rsh`` starts a command on another host and relays its output; the
process is *not* transparent (it belongs to the remote host, appears in
the remote process table, reports the remote hostname) and can never be
moved again — if the remote host's owner returns, the guest squats.

Used as the baseline remote-execution mechanism in the comparisons of
chapters 2 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from ..config import KB
from ..kernel import Host, Program, UserContext
from ..sim import Effect

__all__ = ["RshResult", "rsh_run"]

#: Connection setup: rsh spawns a remote login-ish session.
RSH_SETUP_BYTES = 4 * KB
RSH_SETUP_CPU = 50e-3  # rshd fork/exec and authentication overhead
#: Output relayed back to the invoking terminal when the command ends.
RSH_OUTPUT_BYTES = 4 * KB


@dataclass
class RshResult:
    value: Any
    elapsed: float
    remote_pid: int


def rsh_run(
    proc: UserContext,
    target: Host,
    program: Program,
    *args: Any,
) -> Generator[Effect, None, RshResult]:
    """Run ``program`` on ``target`` the rsh way, from ``proc``'s context.

    Blocks until the remote command completes and its output has been
    relayed back.  The remote process is homed on the *target* — no
    home-node transparency, no eviction, no migration.
    """
    started = proc.now
    kernel = proc.kernel
    # Ship the command line and environment to the remote daemon.
    yield from kernel.lan.transfer(
        kernel.address, target.address, RSH_SETUP_BYTES
    )
    yield from target.cpu.consume(RSH_SETUP_CPU)
    # The command runs as a *native* process of the target host.
    pcb, _ctx = target.spawn_process(
        program, *args, name=f"rsh:{getattr(program, '__name__', 'cmd')}"
    )
    value = yield pcb.task.join()
    # Relay the output back to the invoking terminal.
    yield from kernel.lan.transfer(target.address, kernel.address, RSH_OUTPUT_BYTES)
    return RshResult(value=value, elapsed=proc.now - started, remote_pid=pcb.pid)
