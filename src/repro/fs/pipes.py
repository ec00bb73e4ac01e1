"""Pipes: file-like IPC channels with migration transparency (ch. 3/5).

Sprite implements interprocess communication through file-like objects
whose state lives at an I/O server, which is exactly why migration is
transparent to communicating processes: only the kernel knows where the
endpoints are, and the buffer doesn't move when a process does.

The model keeps each pipe's buffer and blocking state on the file
server that owns the pipe's name.  Readers block (server-side) until
bytes arrive; writers block while the buffer is full.  Either endpoint
can migrate mid-conversation — its next operation simply issues RPCs
from the new host.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Generator, Optional

from ..config import KB, ClusterParams
from ..net import Reply
from ..sim import Effect, SimEvent, Simulator
from .errors import BadStream, PipeBrokenError

__all__ = ["PipeService", "PIPE_BUFFER_BYTES"]

#: Classic 4.xBSD pipe buffer.
PIPE_BUFFER_BYTES = 4 * KB


@dataclass
class _PipeState:
    pipe_id: int
    buffered: int = 0
    capacity: int = PIPE_BUFFER_BYTES
    write_closed: bool = False
    read_closed: bool = False
    #: Reference counts per end — forked sharers split across hosts by
    #: migration each close independently; an end is really closed only
    #: when its last reference goes.
    read_refs: int = 1
    write_refs: int = 1
    #: Events for blocked server-side handlers.
    readable: Optional[SimEvent] = None
    writable: Optional[SimEvent] = None


class PipeService:
    """Server-side pipe manager; registers the ``pipe.*`` RPC services.

    Attach one to a file server host:  ``PipeService(server_host)``.
    Clients use the kernel interface (``proc.pipe()`` / read / write /
    close on the returned descriptors).
    """

    def __init__(self, sim: Simulator, rpc, cpu, params: Optional[ClusterParams] = None):
        self.sim = sim
        self.rpc = rpc
        self.cpu = cpu
        self.params = params or rpc.params
        self.pipes: Dict[int, _PipeState] = {}
        self._ids = itertools.count(1)
        rpc.register("pipe.create", self._rpc_create)
        rpc.register("pipe.read", self._rpc_read)
        rpc.register("pipe.write", self._rpc_write)
        rpc.register("pipe.close", self._rpc_close)
        rpc.register("pipe.addref", self._rpc_addref)

    # ------------------------------------------------------------------
    def _pipe(self, pipe_id: int) -> _PipeState:
        state = self.pipes.get(pipe_id)
        if state is None:
            raise BadStream(f"no pipe {pipe_id}")
        return state

    def _wake_readers(self, state: _PipeState) -> None:
        if state.readable is not None and not state.readable.fired:
            state.readable.trigger()
        state.readable = None

    def _wake_writers(self, state: _PipeState) -> None:
        if state.writable is not None and not state.writable.fired:
            state.writable.trigger()
        state.writable = None

    # ------------------------------------------------------------------
    def _rpc_create(self, _args) -> Generator[Effect, None, int]:
        yield from self.cpu.consume(self.params.kernel_call_cpu)
        pipe_id = next(self._ids)
        self.pipes[pipe_id] = _PipeState(pipe_id=pipe_id)
        return pipe_id

    def _rpc_read(self, args) -> Generator[Effect, None, Reply]:
        """Blocking read: waits server-side until bytes or writer EOF."""
        pipe_id, nbytes = args
        state = self._pipe(pipe_id)
        yield from self.cpu.consume(self.params.kernel_call_cpu)
        while state.buffered == 0:
            if state.write_closed:
                return Reply(result=0, size=1)      # EOF
            if state.readable is None:
                state.readable = SimEvent(self.sim, f"pipe{pipe_id}-readable")
            yield state.readable.wait()
        got = min(nbytes, state.buffered)
        state.buffered -= got
        self._wake_writers(state)
        return Reply(result=got, size=max(1, got))

    def _rpc_write(self, args) -> Generator[Effect, None, int]:
        """Blocking write: waits while the buffer is full."""
        pipe_id, nbytes = args
        state = self._pipe(pipe_id)
        yield from self.cpu.consume(self.params.kernel_call_cpu)
        written = 0
        while written < nbytes:
            if state.read_closed:
                raise PipeBrokenError(f"pipe {pipe_id}: read end closed")
            room = state.capacity - state.buffered
            if room <= 0:
                if state.writable is None:
                    state.writable = SimEvent(self.sim, f"pipe{pipe_id}-writable")
                yield state.writable.wait()
                continue
            chunk = min(room, nbytes - written)
            state.buffered += chunk
            written += chunk
            self._wake_readers(state)
        return written

    def _rpc_addref(self, args) -> Generator[Effect, None, None]:
        """A stream reference split across hosts (fork + migration)."""
        pipe_id, end = args
        state = self._pipe(pipe_id)
        yield from self.cpu.consume(self.params.kernel_call_cpu)
        if end == "read":
            state.read_refs += 1
        else:
            state.write_refs += 1
        return None

    def _rpc_close(self, args) -> Generator[Effect, None, None]:
        pipe_id, end = args
        state = self.pipes.get(pipe_id)
        yield from self.cpu.consume(self.params.kernel_call_cpu)
        if state is None:
            return None
        if end == "read":
            state.read_refs -= 1
            if state.read_refs <= 0:
                state.read_closed = True
                self._wake_writers(state)
        else:
            state.write_refs -= 1
            if state.write_refs <= 0:
                state.write_closed = True
                self._wake_readers(state)
        if state.read_closed and state.write_closed:
            self.pipes.pop(pipe_id, None)
        return None
