"""Process-packaging helpers shared by migration and checkpointing.

Packaging a process for the wire and packaging it for a checkpoint
image are the same discipline (thesis §4.5: per-module encapsulation of
process state): walk the open streams in a deterministic order and
account for machine-independent state plus per-stream references.  The
pieces of that discipline both the migration transaction
(:mod:`repro.migration.mechanism`) and the checkpoint subsystem
(:mod:`repro.checkpoint`) need live here, so the two cannot drift apart.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from ..fs.errors import FsError
from ..net.errors import RpcError

__all__ = [
    "PACKAGE_EXCEPTIONS",
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
