"""The client half of the Sprite file system.

One :class:`FsClient` lives in each host kernel.  It routes operations
to file servers through the prefix table, keeps the host's block cache,
answers the server's consistency callbacks, runs the 30-second delayed
write-back daemon, and implements the stream export/import protocol the
migration mechanism uses to move open files between hosts.

All public operations are generator coroutines intended to be driven
from kernel or process tasks (``yield from client.read(stream, n)``).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..config import ClusterParams
from ..net import Lan, NetNode, RpcPort
from ..sim import Cpu, Effect, Simulator, Sleep, spawn
from .cache import BlockCache, CacheBlock
from .errors import AccessError, BadStream
from .prefix import PrefixTable
from .protocol import (
    CloseRequest,
    IoRequest,
    OffsetOp,
    OpenMode,
    OpenRequest,
    PayloadWrite,
    PdevRequest,
    StreamMove,
)
from .streams import STREAM_ID_COUNTER, Stream

__all__ = ["FsClient"]


class FsClient:
    """Per-host file-system client."""

    def __init__(
        self,
        sim: Simulator,
        lan: Lan,
        node: NetNode,
        rpc: RpcPort,
        cpu: Cpu,
        prefixes: PrefixTable,
        params: Optional[ClusterParams] = None,
        start_writeback_daemon: bool = True,
    ):
        self.sim = sim
        self.lan = lan
        self.node = node
        self.rpc = rpc
        self.cpu = cpu
        self.prefixes = prefixes
        self.params = params or lan.params
        self.tracer = lan.tracer
        self.cache = BlockCache(
            capacity_blocks=self.params.client_cache_blocks,
            block_size=self.params.fs_block_size,
        )
        #: path -> handle_id memo, so write-backs after close still know
        #: which server handle to address.
        self._path_handles: Dict[str, int] = {}
        #: stream_id -> open stream held by this client (for recovery).
        self.open_streams: Dict[int, Stream] = {}
        #: Cluster-wide stream-id allocator, shared by every client of
        #: this simulator through the run's state registry.
        self._stream_ids = sim.state.counter(STREAM_ID_COUNTER)
        self._register_callbacks()
        if start_writeback_daemon:
            spawn(
                sim,
                self._writeback_daemon,
                name=f"writeback:{node.name}",
                daemon=True,
            )

    # ------------------------------------------------------------------
    # Consistency callbacks from servers
    # ------------------------------------------------------------------
    def _register_callbacks(self) -> None:
        self.rpc.register("fsc.flush", self._cb_flush)
        self.rpc.register("fsc.invalidate", self._cb_invalidate)
        self.rpc.register("fsc.disable_cache", self._cb_disable_cache)

    def _cb_flush(self, args: Tuple[str, int]) -> Generator[Effect, None, int]:
        path, handle_id = args
        return (yield from self._flush_path(path, handle_id))

    def _cb_invalidate(self, args: Tuple[str, int]) -> Generator[Effect, None, int]:
        path, _handle_id = args
        yield from self.cpu.consume(self.params.kernel_call_cpu)
        return self.cache.drop_file(path)

    def _cb_disable_cache(self, args: Tuple[str, int]) -> Generator[Effect, None, int]:
        path, handle_id = args
        flushed = yield from self._flush_path(path, handle_id)
        self.cache.drop_file(path)
        return flushed

    def _flush_path(
        self, path: str, handle_id: Optional[int] = None
    ) -> Generator[Effect, None, int]:
        """Write every dirty block of ``path`` back to its server."""
        dirty = self.cache.take_dirty(path)
        if not dirty:
            return 0
        nbytes = len(dirty) * self.params.fs_block_size
        server = self.prefixes.route(path)
        if handle_id is None:
            handle_id = self._handle_for(path)
        yield from self.cpu.consume(self.params.client_block_cpu * len(dirty))
        yield from self.rpc.call(
            server,
            "fs.write",
            IoRequest(
                client=self.node.address,
                handle_id=handle_id,
                offset=dirty[0].index * self.params.fs_block_size,
                nbytes=nbytes,
                writeback=True,
            ),
            size=nbytes,
            timeout=self.params.rpc_probe_interval,
        )
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, f"fsc:{self.node.name}", "flush", path=path, bytes=nbytes
            )
        return nbytes

    def _handle_for(self, path: str) -> int:
        return self._path_handles.get(path, 0)

    # ------------------------------------------------------------------
    # Delayed write-back daemon
    # ------------------------------------------------------------------
    def _writeback_daemon(self) -> Generator[Effect, None, None]:
        period = self.params.writeback_period
        while True:
            yield Sleep(period)
            if not self.node.up:
                continue
            aged = self.cache.aged_dirty(self.sim.now, period)
            for path in sorted(aged):
                yield from self._flush_path(path)

    # ------------------------------------------------------------------
    # Public file API
    # ------------------------------------------------------------------
    def open(self, path: str, mode: int) -> Generator[Effect, None, Stream]:
        server = self.prefixes.route(path)
        result = yield from self.rpc.call(
            server,
            "fs.open",
            OpenRequest(client=self.node.address, path=path, mode=mode),
        )
        stream = Stream(
            path=path,
            mode=mode,
            handle_id=result.handle_id,
            server=server,
            version=result.version,
            size=result.size,
            cacheable=result.cacheable,
            is_pdev=result.is_pdev,
            pdev_host=result.pdev_host,
            pdev_id=result.pdev_id,
            stream_id=next(self._stream_ids),
        )
        self._path_handles[path] = result.handle_id
        self.open_streams[stream.stream_id] = stream
        if stream.is_pdev:
            connection = yield from self.rpc.call(
                result.pdev_host, "pdev.connect", (result.pdev_id, self.node.address)
            )
            stream.pdev_connection = connection
        if mode & OpenMode.APPEND:
            stream.offset = stream.size
        elif OpenMode.writable(mode) and not OpenMode.readable(mode):
            # Plain write-open truncates (UNIX creat semantics).
            stream.size = 0
        return stream

    def close(self, stream: Stream) -> Generator[Effect, None, None]:
        if stream.closed:
            raise BadStream(f"double close of {stream.describe()}")
        stream.refcount -= 1
        if stream.refcount > 0:
            return
        stream.closed = True
        self.open_streams.pop(stream.stream_id, None)
        if stream.is_pipe:
            yield from self.rpc.call(
                stream.server, "pipe.close", (stream.pipe_id, stream.pipe_end)
            )
            return
        if stream.is_pdev:
            yield from self.rpc.call(
                stream.pdev_host,
                "pdev.disconnect",
                (stream.pdev_id, stream.pdev_connection),
            )
            return
        dirty = self.cache.dirty_bytes(stream.path)
        yield from self.rpc.call(
            stream.server,
            "fs.close",
            CloseRequest(
                client=self.node.address,
                handle_id=stream.handle_id,
                mode=stream.mode,
                new_size=stream.size if stream.writable else None,
                dirty_bytes=dirty,
                stream_id=stream.stream_id,
            ),
        )

    # --- pipes -----------------------------------------------------------
    def make_pipe(self) -> Generator[Effect, None, Tuple[Stream, Stream]]:
        """Create a pipe; returns its (read, write) streams.

        The buffer lives at the root file server (the pipe's I/O
        server), so both endpoints stay valid across migrations.
        """
        server = self.prefixes.route("/")
        pipe_id = yield from self.rpc.call(server, "pipe.create", None)
        read_stream = Stream(
            path=f"<pipe:{pipe_id}:r>", mode=OpenMode.READ, handle_id=0,
            server=server, cacheable=False,
            is_pipe=True, pipe_id=pipe_id, pipe_end="read",
            stream_id=next(self._stream_ids),
        )
        write_stream = Stream(
            path=f"<pipe:{pipe_id}:w>", mode=OpenMode.WRITE, handle_id=0,
            server=server, cacheable=False,
            is_pipe=True, pipe_id=pipe_id, pipe_end="write",
            stream_id=next(self._stream_ids),
        )
        self.open_streams[read_stream.stream_id] = read_stream
        self.open_streams[write_stream.stream_id] = write_stream
        return read_stream, write_stream

    def read(self, stream: Stream, nbytes: int) -> Generator[Effect, None, int]:
        """Read up to ``nbytes``; returns bytes actually read (0 at EOF)."""
        self._check(stream, want_read=True)
        if stream.is_pipe:
            return (
                yield from self.rpc.call(
                    stream.server, "pipe.read", (stream.pipe_id, nbytes),
                    reply_size=nbytes, timeout=self.params.rpc_probe_interval,
                )
            )
        offset = yield from self._advance_offset(stream, nbytes, peek_size=True)
        available = max(0, stream.size - offset)
        todo = min(nbytes, available)
        if todo <= 0:
            return 0
        if stream.cacheable:
            hit, miss = self.cache.lookup_range(
                stream.path, stream.version, offset, todo
            )
            yield from self.cpu.consume(self.params.client_block_cpu * max(1, hit))
            if miss:
                miss_bytes = miss * self.params.fs_block_size
                yield from self.rpc.call(
                    stream.server,
                    "fs.read",
                    IoRequest(
                        client=self.node.address,
                        handle_id=stream.handle_id,
                        offset=offset,
                        nbytes=miss_bytes,
                    ),
                    reply_size=miss_bytes,
                    timeout=self.params.rpc_probe_interval,
                )
                evicted = self.cache.install_range(
                    stream.path, stream.version, offset, todo,
                    dirty=False, now=self.sim.now,
                )
                yield from self._write_back_evicted(evicted)
        else:
            yield from self.rpc.call(
                stream.server,
                "fs.read",
                IoRequest(
                    client=self.node.address,
                    handle_id=stream.handle_id,
                    offset=offset,
                    nbytes=todo,
                ),
                reply_size=todo,
            )
        if not stream.shared:
            stream.offset = offset + todo
        return todo

    def write(self, stream: Stream, nbytes: int) -> Generator[Effect, None, int]:
        self._check(stream, want_write=True)
        if stream.is_pipe:
            return (
                yield from self.rpc.call(
                    stream.server, "pipe.write", (stream.pipe_id, nbytes),
                    size=nbytes, timeout=self.params.rpc_probe_interval,
                )
            )
        offset = yield from self._advance_offset(stream, nbytes)
        if stream.cacheable:
            nblocks = self.params.blocks(nbytes)
            yield from self.cpu.consume(self.params.client_block_cpu * max(1, nblocks))
            evicted = self.cache.install_range(
                stream.path, stream.version, offset, nbytes,
                dirty=True, now=self.sim.now,
            )
            stream.dirty_bytes += nbytes
            yield from self._write_back_evicted(evicted)
        else:
            yield from self.rpc.call(
                stream.server,
                "fs.write",
                IoRequest(
                    client=self.node.address,
                    handle_id=stream.handle_id,
                    offset=offset,
                    nbytes=nbytes,
                ),
                size=nbytes,
                timeout=self.params.rpc_probe_interval,
            )
        end = offset + nbytes
        if end > stream.size:
            stream.size = end
        if not stream.shared:
            stream.offset = end
        return nbytes

    def seek(self, stream: Stream, offset: int) -> Generator[Effect, None, int]:
        self._check(stream)
        if stream.shared:
            result = yield from self.rpc.call(
                stream.server,
                "fs.offset",
                OffsetOp(
                    handle_id=stream.handle_id,
                    stream_id=stream.stream_id,
                    set_to=offset,
                ),
            )
            return result
        yield from self.cpu.consume(self.params.kernel_call_cpu)
        stream.offset = offset
        return offset

    def remove(self, path: str) -> Generator[Effect, None, None]:
        server = self.prefixes.route(path)
        yield from self.rpc.call(server, "fs.remove", path)

    def stat(self, path: str) -> Generator[Effect, None, Dict[str, Any]]:
        server = self.prefixes.route(path)
        return (yield from self.rpc.call(server, "fs.stat", path))

    def flush(self, path: str) -> Generator[Effect, None, int]:
        """Synchronously write back this client's dirty blocks of ``path``."""
        return (yield from self._flush_path(path))

    # --- small control files (atomic payloads) -----------------------
    def payload_read(self, path: str) -> Generator[Effect, None, Any]:
        server = self.prefixes.route(path)
        return (yield from self.rpc.call(server, "fs.payload_read", path))

    def payload_write(
        self, path: str, payload: Any, op: str = "set"
    ) -> Generator[Effect, None, None]:
        server = self.prefixes.route(path)
        yield from self.rpc.call(
            server,
            "fs.payload_write",
            PayloadWrite(client=self.node.address, path=path, payload=payload, op=op),
        )

    # --- pseudo-devices -------------------------------------------------
    def pdev_request(
        self,
        stream: Stream,
        message: Any,
        size: int = 256,
        reply_size: int = 256,
        timeout: Optional[float] = None,
    ) -> Generator[Effect, None, Any]:
        """Send a request through a pdev stream and await the reply
        (its master answers when it likes: a blocking call)."""
        self._check(stream)
        if not stream.is_pdev:
            raise AccessError(f"{stream.path} is not a pseudo-device")
        return (
            yield from self.rpc.call(
                stream.pdev_host,
                "pdev.request",
                PdevRequest(
                    pdev_id=stream.pdev_id,
                    connection_id=stream.pdev_connection,
                    message=message,
                    size=size,
                ),
                size=size,
                reply_size=reply_size,
                timeout=timeout or self.params.rpc_probe_interval,
            )
        )

    # ------------------------------------------------------------------
    # Host crash (driven by repro.faults)
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Drop all volatile client state: cached blocks (dirty ones are
        simply lost — delayed write-back trades exactly this much data
        for performance), open streams, and handle memos."""
        self.cache.drop_all()
        self.open_streams.clear()
        self._path_handles.clear()

    # ------------------------------------------------------------------
    # Server-crash recovery (Sprite's stateful-server recovery [Wel90])
    # ------------------------------------------------------------------
    def recover(self, server: int) -> Generator[Effect, None, int]:
        """Rebuild a restarted server's state from our open streams.

        For every open stream on that server, re-assert the open (mode,
        caching registration, shared offset), then push our delayed-
        write dirty blocks so the server again knows who holds the
        freshest data.  Pipes are not recoverable: their buffers were
        volatile server state (readers see EOF).  Returns the number of
        streams re-opened.
        """
        reopened = 0
        for stream in sorted(
            self.open_streams.values(), key=lambda s: s.stream_id
        ):
            if stream.server != server or stream.is_pdev or stream.is_pipe:
                continue
            dirty = self.cache.dirty_bytes(stream.path)
            reply = yield from self.rpc.call(
                server,
                "fs.reopen",
                {
                    "client": self.node.address,
                    "path": stream.path,
                    "mode": stream.mode,
                    "size": stream.size,
                    "offset": stream.offset,
                    "stream_id": stream.stream_id,
                    "shared": stream.shared,
                    "caching": stream.cacheable,
                    "dirty_bytes": dirty,
                },
            )
            stream.handle_id = reply["handle_id"]
            self._path_handles[stream.path] = reply["handle_id"]
            reopened += 1
            if dirty:
                yield from self._flush_path(stream.path, stream.handle_id)
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, f"fsc:{self.node.name}", "recovered",
                server=server, streams=reopened,
            )
        return reopened

    # ------------------------------------------------------------------
    # Stream migration protocol (used by repro.migration)
    # ------------------------------------------------------------------
    def export_stream(
        self, stream: Stream, to_client: int
    ) -> Generator[Effect, None, Dict[str, Any]]:
        """Source side: flush and hand the stream to ``to_client``.

        Returns the state dictionary the target needs to install the
        stream.  The server is told about the move so it can detect
        cross-host sharing and claim the access position.
        """
        self._check(stream)
        yield from self.cpu.consume(self.params.stream_transfer_cpu)
        if stream.is_pdev or stream.is_pipe:
            # Server-resident endpoints: nothing to flush, nothing for
            # the I/O server to hand over — the buffer never moves.
            if stream.is_pipe and stream.refcount > 1:
                # Fork-shared endpoint splitting across hosts: both
                # sides will close independently, so the server must
                # count one more reference for this end.
                yield from self.rpc.call(
                    stream.server, "pipe.addref",
                    (stream.pipe_id, stream.pipe_end),
                )
            addref_sent = stream.is_pipe and stream.refcount > 1
            kept_sharers = stream.refcount > 1
            if kept_sharers:
                stream.refcount -= 1   # the migrating reference departs
            else:
                self.open_streams.pop(stream.stream_id, None)
            return {
                "stream": stream.clone_for_transfer(),
                "shared": False,
                "cacheable": False,
                "size": 0,
                "undo": {
                    "kind": "pipe" if stream.is_pipe else "pdev",
                    "addref_sent": addref_sent,
                    "refcount_decremented": kept_sharers,
                },
            }
        flushed = yield from self._flush_path(stream.path, stream.handle_id)
        info = yield from self.rpc.call(
            stream.server,
            "fs.stream_move",
            StreamMove(
                handle_id=stream.handle_id,
                stream_id=stream.stream_id,
                from_client=self.node.address,
                to_client=to_client,
                offset=stream.offset,
                mode=stream.mode,
                source_keeps=stream.refcount > 1,
            ),
            size=self.params.stream_transfer_bytes,
        )
        if info["shared"]:
            # Remaining local sharers must use the server's offset too,
            # and the departing reference no longer counts against them.
            stream.shared = True
            stream.refcount -= 1
        else:
            self.open_streams.pop(stream.stream_id, None)
        copy = stream.clone_for_transfer()
        copy.shared = info["shared"]
        copy.cacheable = info["cacheable"] and not info["shared"]
        copy.size = max(stream.size, info["size"])
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now,
                f"fsc:{self.node.name}",
                "stream-export",
                path=stream.path,
                to=to_client,
                flushed=flushed,
            )
        return {
            "stream": copy,
            "shared": info["shared"],
            "cacheable": copy.cacheable,
            "size": copy.size,
            "undo": {
                "kind": "file",
                "refcount_decremented": info["shared"],
            },
        }

    def undo_export(
        self, stream: Stream, state: Dict[str, Any], to_client: int
    ) -> Generator[Effect, None, None]:
        """Compensating action for :meth:`export_stream`: pull the
        reference back from ``to_client`` and restore local bookkeeping.

        The server RPC (the only part that can fail) runs first, so an
        aborting migration may safely re-invoke this under its
        retry/backoff loop — local state is only touched once the
        server agrees the reference is home again.
        """
        undo = state.get("undo", {})
        yield from self.cpu.consume(self.params.stream_transfer_cpu)
        if undo.get("kind") == "file":
            info = yield from self.rpc.call(
                stream.server,
                "fs.stream_move",
                StreamMove(
                    handle_id=stream.handle_id,
                    stream_id=stream.stream_id,
                    from_client=to_client,
                    to_client=self.node.address,
                    offset=stream.offset,
                    mode=stream.mode,
                    source_keeps=False,
                ),
                size=self.params.stream_transfer_bytes,
            )
            stream.shared = info["shared"]
        elif undo.get("kind") == "pipe" and undo.get("addref_sent"):
            # The extra endpoint reference granted for the move is
            # surplus again now that only this host holds the end.
            yield from self.rpc.call(
                stream.server, "pipe.close", (stream.pipe_id, stream.pipe_end)
            )
        if undo.get("refcount_decremented"):
            stream.refcount += 1
        self.reregister_stream(stream)
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now,
                f"fsc:{self.node.name}",
                "stream-export-undone",
                path=stream.path,
            )

    def reregister_stream(self, stream: Stream) -> None:
        """Restore the client-side records for a stream whose export was
        rolled back (idempotent)."""
        if not (stream.is_pipe or stream.is_pdev):
            self._path_handles[stream.path] = stream.handle_id
        self.open_streams[stream.stream_id] = stream

    def forget_stream(self, stream: Stream) -> None:
        """Drop an imported stream copy without touching the server —
        used when the *source* has already pulled the reference back."""
        self.open_streams.pop(stream.stream_id, None)

    def import_stream(self, state: Dict[str, Any]) -> Generator[Effect, None, Stream]:
        """Target side: install a stream exported by another client."""
        stream: Stream = state["stream"]
        yield from self.cpu.consume(self.params.stream_transfer_cpu)
        self._path_handles[stream.path] = stream.handle_id
        self.open_streams[stream.stream_id] = stream
        return stream

    # ------------------------------------------------------------------
    def _advance_offset(
        self, stream: Stream, nbytes: int, peek_size: bool = False
    ) -> Generator[Effect, None, int]:
        """Return the operation's start offset, honouring shared offsets."""
        if not stream.shared:
            return stream.offset
        if peek_size:
            # Reads must not advance past EOF at the server: fetch, clip,
            # then add.  One extra RPC mirrors Sprite's shadow-stream cost.
            current = yield from self.rpc.call(
                stream.server,
                "fs.offset",
                OffsetOp(handle_id=stream.handle_id, stream_id=stream.stream_id),
            )
            todo = min(nbytes, max(0, stream.size - current))
            if todo > 0:
                yield from self.rpc.call(
                    stream.server,
                    "fs.offset",
                    OffsetOp(
                        handle_id=stream.handle_id,
                        stream_id=stream.stream_id,
                        delta=todo,
                    ),
                )
            return current
        new_offset = yield from self.rpc.call(
            stream.server,
            "fs.offset",
            OffsetOp(
                handle_id=stream.handle_id,
                stream_id=stream.stream_id,
                delta=nbytes,
            ),
        )
        return new_offset - nbytes

    def _write_back_evicted(
        self, evicted: List[CacheBlock]
    ) -> Generator[Effect, None, None]:
        if not evicted:
            return
        by_path: Dict[str, List[CacheBlock]] = {}
        for block in evicted:
            by_path.setdefault(block.path, []).append(block)
        for path, blocks in sorted(by_path.items()):
            nbytes = len(blocks) * self.params.fs_block_size
            server = self.prefixes.route(path)
            yield from self.rpc.call(
                server,
                "fs.write",
                IoRequest(
                    client=self.node.address,
                    handle_id=self._path_handles.get(path, 0),
                    offset=blocks[0].index * self.params.fs_block_size,
                    nbytes=nbytes,
                    writeback=True,
                ),
                size=nbytes,
            )

    def _check(
        self, stream: Stream, want_read: bool = False, want_write: bool = False
    ) -> None:
        if stream.closed:
            raise BadStream(f"operation on closed stream {stream.describe()}")
        if want_read and not stream.readable:
            raise AccessError(f"stream not open for reading: {stream.describe()}")
        if want_write and not stream.writable:
            raise AccessError(f"stream not open for writing: {stream.describe()}")
