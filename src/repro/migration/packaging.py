"""Process-packaging helpers shared by migration and checkpointing.

Packaging a process for the wire and packaging it for a checkpoint
image are the same discipline (thesis §4.5: per-module encapsulation of
process state): walk the open streams in a deterministic order, account
for machine-independent state plus per-stream references, and rebuild
the process on the other side from a zero-argument spawn factory.  The
pieces of that discipline both the migration transaction
(:mod:`repro.migration.mechanism`) and the checkpoint subsystem
(:mod:`repro.checkpoint`) need live here, so the two cannot drift apart.
"""

from __future__ import annotations

from functools import partial
from typing import Any, List, Tuple

from ..fs.errors import FsError
from ..net.errors import RpcError

__all__ = [
    "PACKAGE_EXCEPTIONS",
    "spawn_factory",
    "state_bytes",
    "stream_bytes",
    "stream_manifest",
]

#: The exception classes a packaging loop must tolerate per stream:
#: server RPC failures and FS-level refusals.  Both callers catch
#: exactly this tuple so their failure envelopes cannot drift apart.
PACKAGE_EXCEPTIONS = (RpcError, FsError)


def stream_manifest(pcb: Any) -> List[Tuple[int, Any]]:
    """The deterministic ``(fd, stream)`` packaging order for a process.

    Sorted by fd so exports, byte accounting, and undo logs are
    byte-identical across runs regardless of dict insertion order.
    """
    return [(fd, pcb.streams[fd]) for fd in sorted(pcb.streams)]


def state_bytes(params: Any, extra_bytes: int = 0) -> int:
    """Bytes of machine-independent process state in a package."""
    return params.migration_state_bytes + extra_bytes


def stream_bytes(params: Any, count: int) -> int:
    """Bytes of per-stream reference state for ``count`` streams."""
    return count * params.stream_transfer_bytes


def _bound_program(program: Any, args: Tuple[Any, ...], proc: Any) -> Any:
    """What a :func:`spawn_factory` partial runs: ``program(proc, *args)``."""
    return program(proc, *args)


def spawn_factory(program: Any, *args: Any) -> Any:
    """Bind ``program(*args)`` into a restartable spawn factory.

    The result is itself a program taking only the :class:`UserContext`
    — ``UserContext.start(factory)`` re-runs the original program with
    its original arguments.
    """
    return partial(_bound_program, program, tuple(args))
