"""Backing files: paging a process's memory through the file system.

Sprite demand-pages processes from *backing files* on file servers
rather than local disks.  This is what makes the thesis's VM-transfer
design work: to migrate, the source simply flushes dirty pages to the
backing file and the target demand-pages from the server — no
host-to-host memory protocol is needed, and the source retains no
residual state.

Backing-file I/O deliberately bypasses the client block cache (caching
pages in the client's file cache would double-buffer memory), so costs
here are pure server RPC + wire + disk time.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..config import ClusterParams
from ..sim import Effect
from .client import FsClient
from .errors import BadStream
from .protocol import IoRequest, OpenMode, OpenRequest

__all__ = ["BackingFile"]


class BackingFile:
    """Paging storage for one process's address space."""

    def __init__(self, client: FsClient, path: str, params: Optional[ClusterParams] = None):
        self.client = client
        self.path = path
        self.params = params or client.params
        self.server = client.prefixes.route(path)
        self.handle_id: int = -1
        self.bytes_paged_out = 0

    def create(self) -> Generator[Effect, None, "BackingFile"]:
        """Create (or reattach to) the backing file on its server."""
        result = yield from self.client.rpc.call(
            self.server,
            "fs.open",
            OpenRequest(
                client=self.client.node.address,
                path=self.path,
                mode=OpenMode.READ_WRITE | OpenMode.CREATE,
            ),
        )
        self.handle_id = result.handle_id
        return self

    # ------------------------------------------------------------------
    def page_out(self, nbytes: int) -> Generator[Effect, None, int]:
        """Write ``nbytes`` of dirty pages to the server (uncached)."""
        if nbytes <= 0:
            return 0
        self._require_open()
        yield from self.client.cpu.consume(
            self.params.page_handling_cpu * self.params.pages(nbytes)
        )
        yield from self.client.rpc.call(
            self.server,
            "fs.write",
            IoRequest(
                client=self.client.node.address,
                handle_id=self.handle_id,
                offset=0,
                nbytes=nbytes,
            ),
            size=nbytes,
            timeout=self.params.rpc_probe_interval,
        )
        self.bytes_paged_out += nbytes
        return nbytes

    def page_in(self, nbytes: int) -> Generator[Effect, None, int]:
        """Demand-page ``nbytes`` from the server (uncached)."""
        if nbytes <= 0:
            return 0
        self._require_open()
        yield from self.client.rpc.call(
            self.server,
            "fs.read",
            IoRequest(
                client=self.client.node.address,
                handle_id=self.handle_id,
                offset=0,
                nbytes=nbytes,
            ),
            reply_size=nbytes,
            timeout=self.params.rpc_probe_interval,
        )
        yield from self.client.cpu.consume(
            self.params.page_handling_cpu * self.params.pages(nbytes)
        )
        return nbytes

    def remove(self) -> Generator[Effect, None, None]:
        """Delete the backing file (process exit)."""
        yield from self.client.remove(self.path)
        self.handle_id = -1

    def handoff(self, target_client: FsClient) -> "BackingFile":
        """Rebind this backing file to the target host's client.

        No data moves: the pages live on the server.  The new host only
        needs the name and handle.
        """
        successor = BackingFile(target_client, self.path, self.params)
        successor.handle_id = self.handle_id
        return successor

    def _require_open(self) -> None:
        if self.handle_id < 0:
            raise BadStream(f"backing file {self.path} not created/attached")
