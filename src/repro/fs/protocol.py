"""Wire-level request/response records for the file protocol.

These are the payloads carried by ``fs.*`` RPCs between client kernels
and file servers.  Keeping them as explicit dataclasses documents the
protocol and keeps handlers honest about what crosses the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = [
    "OpenMode",
    "OpenRequest",
    "OpenResult",
    "CloseRequest",
    "IoRequest",
    "PayloadWrite",
    "StreamMove",
    "OffsetOp",
    "PdevRequest",
]


class OpenMode:
    """Open modes as bit flags (subset of Sprite's)."""

    READ = 0x1
    WRITE = 0x2
    CREATE = 0x4
    APPEND = 0x8
    READ_WRITE = READ | WRITE

    @staticmethod
    def readable(mode: int) -> bool:
        return bool(mode & OpenMode.READ)

    @staticmethod
    def writable(mode: int) -> bool:
        return bool(mode & (OpenMode.WRITE | OpenMode.APPEND))

    @staticmethod
    def describe(mode: int) -> str:
        bits = []
        if mode & OpenMode.READ:
            bits.append("r")
        if mode & OpenMode.WRITE:
            bits.append("w")
        if mode & OpenMode.CREATE:
            bits.append("c")
        if mode & OpenMode.APPEND:
            bits.append("a")
        return "".join(bits) or "-"


@dataclass
class OpenRequest:
    client: int          # LAN address of the opening kernel
    path: str
    mode: int
    pid: Optional[int] = None


@dataclass
class OpenResult:
    handle_id: int
    version: int
    size: int
    cacheable: bool
    is_pdev: bool = False
    pdev_host: int = -1
    pdev_id: int = -1


@dataclass
class CloseRequest:
    client: int
    handle_id: int
    mode: int
    new_size: Optional[int] = None
    #: Dirty bytes the client still holds under delayed write-back.
    dirty_bytes: int = 0
    #: Stream identity, so the server can drop any migrated-stream
    #: reference it tracked for this client (-1 = not stream-scoped).
    stream_id: int = -1


@dataclass
class IoRequest:
    client: int
    handle_id: int
    offset: int
    nbytes: int
    #: True when this is a delayed write-back rather than synchronous IO.
    writeback: bool = False


@dataclass
class PayloadWrite:
    client: int
    path: str
    payload: Any = None
    #: Merge function name for read-modify-write control files ("set" or
    #: "update"); "update" merges dict payloads key-wise.
    op: str = "set"


@dataclass
class StreamMove:
    handle_id: int
    stream_id: int
    from_client: int
    to_client: int
    offset: int
    mode: int
    #: True when other processes on the source host still share this
    #: stream (fork sharing) — the move then splits the stream across
    #: hosts and the server must take over the access position.
    source_keeps: bool = False


@dataclass
class OffsetOp:
    handle_id: int
    stream_id: int
    delta: int = 0
    set_to: Optional[int] = None


@dataclass
class PdevRequest:
    pdev_id: int
    connection_id: int
    message: Any = None
    size: int = 256
