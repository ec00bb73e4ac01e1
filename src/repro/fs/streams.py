"""Client-side stream objects (open-file descriptors).

A :class:`Stream` is the per-open state a Sprite kernel keeps: the path,
mode, access position, cacheability, and a reference to the server-side
I/O handle.  Forked children share the parent's stream (and therefore
its offset), exactly as in UNIX; when migration splits the sharers of
one stream across hosts, the offset moves to the I/O server and
``shared`` flips on [Wel90].
"""

from __future__ import annotations

from dataclasses import dataclass

from .protocol import OpenMode

__all__ = ["Stream", "STREAM_ID_COUNTER"]

#: Name of the per-cluster stream-id allocator in ``sim.state``.
#: Stream ids are only meaningful within one cluster; allocating them
#: from the run's :class:`~repro.sim.StateRegistry` (rather than a
#: module-level counter, as before PR 6) means a fixed seed yields
#: identical ids no matter how many clusters the process built.
STREAM_ID_COUNTER = "fs.stream_ids"


@dataclass
class Stream:
    """One open stream on one client kernel."""

    path: str
    mode: int
    handle_id: int
    server: int                       # LAN address of the I/O server
    version: int = 1
    size: int = 0                     # client's view of the file size
    offset: int = 0                   # local access position (if not shared)
    cacheable: bool = True
    #: When True the access position lives at the I/O server.
    shared: bool = False
    #: Processes on this host referencing the stream (fork sharing).
    refcount: int = 1
    closed: bool = False
    is_pdev: bool = False
    pdev_host: int = -1
    pdev_id: int = -1
    pdev_connection: int = -1
    #: Pipe endpoints: buffer lives at the I/O server, so either end can
    #: migrate without the other noticing.
    is_pipe: bool = False
    pipe_id: int = -1
    pipe_end: str = ""              # "read" or "write"
    #: Cluster-unique id, allocated by the creating FsClient from
    #: ``sim.state.counter(STREAM_ID_COUNTER)``.
    stream_id: int = -1
    #: Bytes written through this stream that are still delayed-write
    #: dirty (approximate; used for close bookkeeping).
    dirty_bytes: int = 0

    @property
    def readable(self) -> bool:
        return OpenMode.readable(self.mode)

    @property
    def writable(self) -> bool:
        return OpenMode.writable(self.mode)

    def describe(self) -> str:
        kind = "pdev" if self.is_pdev else "file"
        return (
            f"<Stream {self.stream_id} {kind} {self.path} "
            f"mode={OpenMode.describe(self.mode)} offset={self.offset} "
            f"{'shared' if self.shared else 'local'}>"
        )

    def clone_for_transfer(self) -> "Stream":
        """A copy carrying the same identity, installed on a new host."""
        copy = Stream(
            path=self.path,
            mode=self.mode,
            handle_id=self.handle_id,
            server=self.server,
            version=self.version,
            size=self.size,
            offset=self.offset,
            cacheable=self.cacheable,
            shared=self.shared,
            refcount=1,
            is_pdev=self.is_pdev,
            pdev_host=self.pdev_host,
            pdev_id=self.pdev_id,
            pdev_connection=self.pdev_connection,
            is_pipe=self.is_pipe,
            pipe_id=self.pipe_id,
            pipe_end=self.pipe_end,
        )
        copy.stream_id = self.stream_id
        return copy
