"""The Sprite file server.

One server owns a domain of the shared namespace and is the central
point for cache consistency [NWO88] and stream state [Wel90]:

* It tracks which client kernels cache each file and which client last
  wrote it (delayed write-back means the freshest data may live in a
  client cache, not on the server).
* On an open it decides cacheability: concurrent write sharing disables
  client caching for everyone; sequential write sharing triggers a
  flush callback to the last writer.
* It stores I/O handles (per-file reference state) and, for streams
  shared across hosts after fork+migration, the authoritative access
  position (the "shadow stream").

Everything here runs as RPC handlers on the server host, charging the
server's CPU — which is exactly how file-server contention becomes the
limiting factor in the thesis's parallel-make experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional, Set

from ..config import ClusterParams
from ..sim import Cpu, Effect, Resource, Simulator, Tracer
from ..sim.random import Rng
from ..net import Lan, NetNode, Reply, RpcPort
from .errors import FileNotFound
from .protocol import (
    CloseRequest,
    IoRequest,
    OffsetOp,
    OpenMode,
    OpenRequest,
    OpenResult,
    PayloadWrite,
    StreamMove,
)

__all__ = ["FileServer", "ServerFile"]


@dataclass
class ServerFile:
    """Server-side state for one file (the I/O handle of [Wel90])."""

    path: str
    handle_id: int
    size: int = 0
    version: int = 1
    payload: Any = None
    is_pdev: bool = False
    pdev_host: int = -1
    pdev_id: int = -1
    #: Clients with the file open, by mode.
    open_readers: Dict[int, int] = field(default_factory=dict)
    open_writers: Dict[int, int] = field(default_factory=dict)
    #: Clients that may hold cached blocks of this file.
    caching_clients: Set[int] = field(default_factory=set)
    #: Client whose cache holds newer data than the server (delayed write).
    last_writer: Optional[int] = None
    #: False once concurrent write sharing has disabled caching.
    cacheable: bool = True
    #: Authoritative offsets for cross-host shared streams.
    shared_offsets: Dict[int, int] = field(default_factory=dict)
    #: Which clients reference each migrated stream (refcounts).
    stream_refs: Dict[int, Dict[int, int]] = field(default_factory=dict)

    def open_count(self) -> int:
        return sum(self.open_readers.values()) + sum(self.open_writers.values())

    def writer_clients(self) -> Set[int]:
        return set(self.open_writers)

    def user_clients(self) -> Set[int]:
        return set(self.open_readers) | set(self.open_writers)


def _bump(table: Dict[int, int], key: int, delta: int) -> None:
    value = table.get(key, 0) + delta
    if value <= 0:
        table.pop(key, None)
    else:
        table[key] = value


class FileServer:
    """A file server bound to one LAN node."""

    def __init__(
        self,
        sim: Simulator,
        lan: Lan,
        node: NetNode,
        rpc: RpcPort,
        cpu: Cpu,
        params: Optional[ClusterParams] = None,
        tracer: Optional[Tracer] = None,
        name: str = "fileserver",
    ):
        self.sim = sim
        self.lan = lan
        self.node = node
        self.rpc = rpc
        self.cpu = cpu
        self.params = params or lan.params
        self.tracer = tracer if tracer is not None else lan.tracer
        self.name = name
        self.files: Dict[str, ServerFile] = {}
        self._handles: Dict[int, ServerFile] = {}
        self._handle_ids = itertools.count(1)
        self.disk = Resource(sim, capacity=1, name=f"{name}.disk")
        self._disk_rng = None  # lazily seeded below
        # Metrics the benchmarks read.
        self.lookups = 0
        self.opens = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.consistency_callbacks = 0
        self.reopens = 0
        self._register_services()

    # ------------------------------------------------------------------
    def _register_services(self) -> None:
        self.rpc.register("fs.open", self._rpc_open)
        self.rpc.register("fs.close", self._rpc_close)
        self.rpc.register("fs.read", self._rpc_read)
        self.rpc.register("fs.write", self._rpc_write)
        self.rpc.register("fs.remove", self._rpc_remove)
        self.rpc.register("fs.stat", self._rpc_stat)
        self.rpc.register("fs.payload_read", self._rpc_payload_read)
        self.rpc.register("fs.payload_write", self._rpc_payload_write)
        self.rpc.register("fs.stream_move", self._rpc_stream_move)
        self.rpc.register("fs.offset", self._rpc_offset)
        self.rpc.register("fs.register_pdev", self._rpc_register_pdev)
        self.rpc.register("fs.reopen", self._rpc_reopen)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _lookup(self, path: str) -> Generator[Effect, None, ServerFile]:
        """Charge a name lookup and return the file or raise."""
        self.lookups += 1
        yield from self.cpu.consume(self.params.fs_name_lookup_cpu)
        entry = self.files.get(path)
        if entry is None:
            raise FileNotFound(path)
        return entry

    def _create_entry(self, path: str) -> ServerFile:
        handle_id = next(self._handle_ids)
        entry = ServerFile(path=path, handle_id=handle_id)
        self.files[path] = entry
        self._handles[handle_id] = entry
        return entry

    def _by_handle(self, handle_id: int) -> ServerFile:
        entry = self._handles.get(handle_id)
        if entry is None:
            raise FileNotFound(f"stale handle {handle_id}")
        return entry

    def _disk_read(self, nbytes: int) -> Generator[Effect, None, None]:
        """Charge a disk read for the fraction missing the server cache."""
        if self._disk_rng is None:
            self._disk_rng = Rng(self.params.seed ^ 0xD15C)
        if self._disk_rng.random() < self.params.server_cache_hit_rate:
            return
        duration = self.params.disk_latency + nbytes / self.params.disk_bandwidth
        yield self.disk.hold(duration)

    def _callback(
        self, client: int, service: str, args: Any
    ) -> Generator[Effect, None, Any]:
        """Cache-consistency callback RPC to a client kernel."""
        self.consistency_callbacks += 1
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, self.name, "callback", client=client, service=service
            )
        return (yield from self.rpc.call(client, service, args))

    # ------------------------------------------------------------------
    # Consistency on open [NWO88]
    # ------------------------------------------------------------------
    def _prepare_open(
        self, entry: ServerFile, request: OpenRequest
    ) -> Generator[Effect, None, bool]:
        """Run consistency actions; return cacheability for this client."""
        client = request.client
        writing = OpenMode.writable(request.mode)

        # Fetch fresh data if the last writer's cache is ahead of us.
        if entry.last_writer is not None and entry.last_writer != client:
            yield from self._callback(
                entry.last_writer, "fsc.flush", (entry.path, entry.handle_id)
            )
            entry.last_writer = None

        if writing:
            entry.version += 1
            others = entry.user_clients() - {client}
            if others:
                # Concurrent write sharing: disable caching everywhere.
                entry.cacheable = False
                for other in sorted(others | entry.caching_clients - {client}):
                    yield from self._callback(
                        other, "fsc.disable_cache", (entry.path, entry.handle_id)
                    )
                entry.caching_clients.clear()
            else:
                # Sole user: invalidate stale remote caches, allow caching.
                for other in sorted(entry.caching_clients - {client}):
                    yield from self._callback(
                        other, "fsc.invalidate", (entry.path, entry.handle_id)
                    )
                    entry.caching_clients.discard(other)
                entry.cacheable = True
        else:
            if entry.writer_clients() - {client}:
                # Someone else is writing: this reader must not cache.
                entry.cacheable = False
        return entry.cacheable

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------
    def _rpc_open(self, request: OpenRequest) -> Generator[Effect, None, OpenResult]:
        self.opens += 1
        if request.mode & OpenMode.CREATE and request.path not in self.files:
            yield from self.cpu.consume(self.params.fs_name_lookup_cpu)
            self.lookups += 1
            entry = self._create_entry(request.path)
        else:
            entry = yield from self._lookup(request.path)
        if entry.is_pdev:
            # Pseudo-device: the client talks to the master host directly.
            _bump(entry.open_readers, request.client, 1)
            return OpenResult(
                handle_id=entry.handle_id,
                version=entry.version,
                size=0,
                cacheable=False,
                is_pdev=True,
                pdev_host=entry.pdev_host,
                pdev_id=entry.pdev_id,
            )
        cacheable = yield from self._prepare_open(entry, request)
        if OpenMode.writable(request.mode):
            _bump(entry.open_writers, request.client, 1)
            if request.mode & OpenMode.WRITE and not request.mode & OpenMode.APPEND:
                pass  # truncation is modelled by the client's new_size at close
        if OpenMode.readable(request.mode) or not OpenMode.writable(request.mode):
            _bump(entry.open_readers, request.client, 1)
        if cacheable:
            entry.caching_clients.add(request.client)
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now,
                self.name,
                "open",
                path=entry.path,
                client=request.client,
                mode=OpenMode.describe(request.mode),
                cacheable=cacheable,
            )
        return OpenResult(
            handle_id=entry.handle_id,
            version=entry.version,
            size=entry.size,
            cacheable=cacheable,
        )

    def _rpc_close(self, request: CloseRequest) -> Generator[Effect, None, None]:
        entry = self._by_handle(request.handle_id)
        yield from self.cpu.consume(self.params.kernel_call_cpu)
        client = request.client
        if OpenMode.writable(request.mode):
            _bump(entry.open_writers, client, -1)
            if request.new_size is not None:
                entry.size = request.new_size
            if request.dirty_bytes > 0:
                entry.last_writer = client
        if OpenMode.readable(request.mode) or not OpenMode.writable(request.mode):
            _bump(entry.open_readers, client, -1)
        if request.stream_id >= 0:
            # The last local reference to a migrated stream is gone:
            # drop whatever reference count the moves accumulated for
            # this client (a pop, not a decrement, so a retried reverse
            # move that double-counted self-heals here).
            refs = entry.stream_refs.get(request.stream_id)
            if refs is not None:
                refs.pop(client, None)
                if not refs:
                    entry.stream_refs.pop(request.stream_id, None)
        # When write sharing ends, future opens may cache again.
        if not entry.open_writers:
            entry.cacheable = True
        return None

    def _rpc_read(self, request: IoRequest) -> Generator[Effect, None, Reply]:
        entry = self._by_handle(request.handle_id)
        nblocks = self.params.blocks(request.nbytes)
        yield from self.cpu.consume(self.params.fs_block_cpu * max(1, nblocks))
        yield from self._disk_read(request.nbytes)
        self.bytes_read += request.nbytes
        return Reply(result=request.nbytes, size=max(1, request.nbytes))

    def _rpc_write(self, request: IoRequest) -> Generator[Effect, None, int]:
        entry = self._by_handle(request.handle_id)
        nblocks = self.params.blocks(request.nbytes)
        yield from self.cpu.consume(self.params.fs_block_cpu * max(1, nblocks))
        self.bytes_written += request.nbytes
        end = request.offset + request.nbytes
        if end > entry.size:
            entry.size = end
        if request.writeback and entry.last_writer == request.client:
            entry.last_writer = None
        return request.nbytes

    def _rpc_remove(self, path: str) -> Generator[Effect, None, None]:
        entry = yield from self._lookup(path)
        for other in sorted(entry.caching_clients):
            yield from self._callback(other, "fsc.invalidate", (path, entry.handle_id))
        self.files.pop(path, None)
        self._handles.pop(entry.handle_id, None)
        return None

    def _rpc_stat(self, path: str) -> Generator[Effect, None, Dict[str, Any]]:
        entry = yield from self._lookup(path)
        return {
            "size": entry.size,
            "version": entry.version,
            "is_pdev": entry.is_pdev,
            "open_count": entry.open_count(),
        }

    def _rpc_payload_read(self, path: str) -> Generator[Effect, None, Any]:
        entry = yield from self._lookup(path)
        yield from self.cpu.consume(self.params.fs_block_cpu)
        return entry.payload

    def _rpc_payload_write(self, request: PayloadWrite) -> Generator[Effect, None, None]:
        entry = self.files.get(request.path)
        if entry is None:
            entry = self._create_entry(request.path)
        yield from self.cpu.consume(self.params.fs_block_cpu)
        if request.op == "update":
            if entry.payload is None:
                entry.payload = {}
            entry.payload.update(request.payload)
        else:
            entry.payload = request.payload
        entry.version += 1
        return None

    # ------------------------------------------------------------------
    # Stream migration support (thesis ch. 5)
    # ------------------------------------------------------------------
    def _rpc_stream_move(self, request: StreamMove) -> Generator[Effect, None, Dict[str, Any]]:
        """Move one stream reference between clients.

        Called by the source kernel during migration, after it has
        flushed its dirty blocks.  The server updates which client
        holds the stream; if the stream becomes shared between hosts
        (fork + migration), the server takes over the access position.
        """
        entry = self._by_handle(request.handle_id)
        yield from self.cpu.consume(self.params.stream_transfer_cpu)
        refs = entry.stream_refs.setdefault(request.stream_id, {})
        if request.source_keeps:
            refs[request.from_client] = max(1, refs.get(request.from_client, 0))
        elif refs.get(request.from_client, 0) > 0:
            _bump(refs, request.from_client, -1)
        _bump(refs, request.to_client, 1)
        # Transfer open-mode bookkeeping between clients.
        if OpenMode.writable(request.mode):
            _bump(entry.open_writers, request.from_client, -1)
            _bump(entry.open_writers, request.to_client, 1)
        if OpenMode.readable(request.mode) or not OpenMode.writable(request.mode):
            _bump(entry.open_readers, request.from_client, -1)
            _bump(entry.open_readers, request.to_client, 1)
        shared = len(refs) > 1
        if shared:
            entry.shared_offsets.setdefault(request.stream_id, request.offset)
            # Cross-host sharing of one stream: offset lives here now, and
            # concurrent writers force caching off.
            if OpenMode.writable(request.mode):
                entry.cacheable = False
                for other in sorted(entry.caching_clients):
                    yield from self._callback(
                        other, "fsc.disable_cache", (entry.path, entry.handle_id)
                    )
                entry.caching_clients.clear()
        cacheable = entry.cacheable
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now,
                self.name,
                "stream-move",
                path=entry.path,
                stream=request.stream_id,
                src=request.from_client,
                dst=request.to_client,
                shared=shared,
            )
        return {"shared": shared, "cacheable": cacheable, "size": entry.size}

    def _rpc_offset(self, request: OffsetOp) -> Generator[Effect, None, int]:
        """Read-modify-write the shared access position of a stream."""
        entry = self._by_handle(request.handle_id)
        yield from self.cpu.consume(self.params.kernel_call_cpu)
        current = entry.shared_offsets.get(request.stream_id, 0)
        if request.set_to is not None:
            current = request.set_to
        else:
            current += request.delta
        entry.shared_offsets[request.stream_id] = current
        return current

    # ------------------------------------------------------------------
    # Pseudo-devices [WO88]
    # ------------------------------------------------------------------
    def _rpc_register_pdev(self, args: Any) -> Generator[Effect, None, int]:
        path, master_host, pdev_id = args
        yield from self.cpu.consume(self.params.fs_name_lookup_cpu)
        entry = self.files.get(path)
        if entry is None:
            entry = self._create_entry(path)
        entry.is_pdev = True
        entry.pdev_host = master_host
        entry.pdev_id = pdev_id
        entry.version += 1
        return entry.handle_id

    # ------------------------------------------------------------------
    # Crash / recovery (Sprite's stateful-server recovery [Wel90])
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the server: volatile state (who has what open, who
        caches, shared offsets) is lost; the disk (file contents/sizes)
        survives.  Clients re-build our state via ``fs.reopen``."""
        self.node.up = False
        self.node.epoch += 1
        for entry in self.files.values():
            entry.open_readers.clear()
            entry.open_writers.clear()
            entry.caching_clients.clear()
            entry.last_writer = None
            entry.stream_refs.clear()
            entry.shared_offsets.clear()
            entry.cacheable = True

    def restart(self) -> None:
        """Come back up; clients must run recovery before further I/O."""
        self.node.up = True

    def client_crashed(self, client: int) -> None:
        """Forget a crashed client kernel's per-client state.

        The inverse of ``fs.reopen``: its opens, cache registrations,
        stream references and delayed-write claim evaporate, so the
        files it had open do not stay write-locked or uncacheable
        forever.  Driven by the fault layer after crash detection.
        """
        for entry in self.files.values():
            entry.open_readers.pop(client, None)
            entry.open_writers.pop(client, None)
            entry.caching_clients.discard(client)
            if entry.last_writer == client:
                # Its freshest data died with its cache; server copy wins.
                entry.last_writer = None
            for refs in entry.stream_refs.values():
                refs.pop(client, None)
            if not entry.open_writers:
                entry.cacheable = True

    def _rpc_reopen(self, args: Dict[str, Any]) -> Generator[Effect, None, Dict[str, Any]]:
        """Recovery: a client re-asserts one open stream it holds.

        Rebuilds the open-mode bookkeeping, cache registration, and (for
        cross-host shared streams) the authoritative offset — the client
        supplies its view; the server takes the max across reopeners.
        """
        yield from self.cpu.consume(self.params.fs_name_lookup_cpu)
        entry = self.files.get(args["path"])
        if entry is None:
            # Disk state never had it (created-but-unflushed): recreate.
            entry = self._create_entry(args["path"])
            entry.size = args.get("size", 0)
        mode = args["mode"]
        client = args["client"]
        if OpenMode.writable(mode):
            _bump(entry.open_writers, client, 1)
        if OpenMode.readable(mode) or not OpenMode.writable(mode):
            _bump(entry.open_readers, client, 1)
        if args.get("caching"):
            entry.caching_clients.add(client)
        if args.get("dirty_bytes"):
            entry.last_writer = client
        if args.get("shared"):
            stream_id = args["stream_id"]
            refs = entry.stream_refs.setdefault(stream_id, {})
            _bump(refs, client, 1)
            known = entry.shared_offsets.get(stream_id, 0)
            entry.shared_offsets[stream_id] = max(known, args.get("offset", 0))
        self.reopens += 1
        return {"handle_id": entry.handle_id, "size": entry.size,
                "epoch": self.node.epoch}

    def add_file(self, path: str, size: int = 0, payload: Any = None) -> ServerFile:
        """Populate the namespace without RPC traffic (workload setup)."""
        entry = self.files.get(path)
        if entry is None:
            entry = self._create_entry(path)
        entry.size = size
        entry.payload = payload
        return entry
