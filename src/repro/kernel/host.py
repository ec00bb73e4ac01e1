"""A workstation: node + CPU + RPC + FS client + kernel + user presence."""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from ..config import ClusterParams
from ..fs import FsClient, PdevRegistry, PrefixTable
from ..net import Lan, NetNode, RpcPort
from ..sim import Cpu, Effect, Simulator, Tracer
from .kernel import SpriteKernel
from .loadavg import LoadAverage
from .pcb import Pcb
from .process import Program, UserContext

__all__ = ["Host"]


class Host:
    """One Sprite workstation.

    ``user_input()`` marks keyboard/mouse activity — the signal the
    thesis's availability criterion and eviction policy key off: a host
    is *available* when its load average is low and no input arrived
    recently; a user's return (new input) reclaims the host.
    """

    def __init__(
        self,
        sim: Simulator,
        lan: Lan,
        name: str,
        prefixes: PrefixTable,
        kernels: Dict[int, SpriteKernel],
        params: Optional[ClusterParams] = None,
        tracer: Optional[Tracer] = None,
        cpu_speed: float = 1.0,
        start_daemons: bool = True,
    ):
        self.sim = sim
        self.lan = lan
        self.name = name
        self.params = params or lan.params
        self.tracer = tracer if tracer is not None else lan.tracer
        self.node = NetNode(sim, name)
        lan.register(self.node)
        self.cpu = Cpu(
            sim,
            quantum=self.params.cpu_quantum,
            speed=cpu_speed,
            name=f"{name}-cpu",
        )
        self.rpc = RpcPort(sim, lan, self.node, cpu=self.cpu, params=self.params)
        self.fs = FsClient(
            sim, lan, self.node, self.rpc, self.cpu, prefixes,
            params=self.params, start_writeback_daemon=start_daemons,
        )
        self.pdevs = PdevRegistry(sim, self.rpc, self.cpu, self.params)
        self.kernel = SpriteKernel(
            sim, lan, self.node, self.cpu, self.rpc, self.fs, self.pdevs,
            params=self.params,
        )
        # The cluster's Ticker samples every host's load in one event.
        self.loadavg = LoadAverage(self.cpu, self.params)
        self._kernels = kernels
        kernels[self.node.address] = self.kernel
        #: Simulated time of the last keyboard/mouse input (-inf = never).
        self.last_input: float = float("-inf")
        #: True while the host's owner is at the console (activity traces
        #: toggle this; input events refresh last_input).
        self.user_present = False

    # ------------------------------------------------------------------
    @property
    def address(self) -> int:
        return self.node.address

    def __repr__(self) -> str:
        return f"<Host {self.name}@{self.address}>"

    # ------------------------------------------------------------------
    # User presence (drives availability and eviction)
    # ------------------------------------------------------------------
    def user_input(self) -> None:
        self.last_input = self.sim.now
        self.user_present = True

    def user_leaves(self) -> None:
        self.user_present = False

    def input_idle_seconds(self) -> float:
        return self.sim.now - self.last_input

    def is_available(self) -> bool:
        """The thesis's idleness criterion: low load AND no recent input."""
        return (
            self.loadavg.effective < self.params.idle_load_threshold
            and self.input_idle_seconds() >= self.params.idle_input_threshold
        )

    # ------------------------------------------------------------------
    # Crash / reboot lifecycle (driven by repro.faults)
    # ------------------------------------------------------------------
    def crash(self) -> list:
        """Full-host crash: all volatile state is lost at this instant.

        Resident process tasks are aborted without cleanup, the kernel's
        process table and the FS client's cache/stream state are
        cleared, and queued inbound packets are discarded.  Daemons
        (writeback, availability notifier) survive as tasks but idle
        while ``node.up`` is False.  Returns the PCBs that were
        executing here; the rest of the cluster only reacts once the
        fault layer drives crash detection.
        """
        if not self.node.up:
            return []
        self.node.up = False
        self.node.epoch += 1
        lost = self.kernel.on_crash()
        self.fs.on_crash()
        while True:
            ok, _packet = self.node.inbox.try_get()
            if not ok:
                break
        return lost

    def reboot(self) -> None:
        """Come back up with a cold kernel.

        The node answers on the LAN again immediately (it was never
        unregistered — same address, as in Sprite where the machine id
        is stable); the availability notifier re-announces to migd
        within one availability period on its next tick, and FS client
        recovery is a no-op since no streams survived the crash.
        """
        if self.node.up:
            return
        self.node.up = True
        self.last_input = float("-inf")
        self.user_present = False
        self.kernel.on_reboot()

    # ------------------------------------------------------------------
    # Process creation
    # ------------------------------------------------------------------
    def spawn_process(
        self,
        program: Program,
        *args: Any,
        name: Optional[str] = None,
        uid: int = 0,
    ) -> Tuple[Pcb, UserContext]:
        """Create a process homed here running ``program``."""
        pcb = self.kernel.make_pcb(name or getattr(program, "__name__", "proc"), uid=uid)
        ctx = UserContext(pcb, self._kernels)
        ctx.start(program, args)
        return pcb, ctx

    def run_process(
        self, program: Program, *args: Any, name: Optional[str] = None
    ) -> Generator[Effect, None, Any]:
        """Spawn a process and wait for it (returns the task result)."""
        pcb, _ctx = self.spawn_process(program, *args, name=name)
        result = yield pcb.task.join()
        return result
