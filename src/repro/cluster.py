"""Cluster assembly: a simulated Sprite installation in one object.

:class:`SpriteCluster` wires the whole stack — LAN, file servers,
workstation hosts with kernels, migration managers, eviction daemons —
the way the Berkeley cluster was wired: one shared namespace, every
host a peer kernel, migration available everywhere.

Typical use::

    cluster = SpriteCluster(workstations=8, seed=42)

    def job(proc):
        yield from proc.compute(5.0)
        return 0

    pcb, _ = cluster.hosts[0].spawn_process(job, name="job")
    cluster.run_until_complete(pcb.task)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from .config import KB, ClusterParams
from .fs import FileServer, PrefixTable
from .fs.pipes import PipeService
from .kernel import Host, Program, SpriteKernel
from .migration import EvictionDaemon, MigrationManager, VmPolicy
from .net import Lan, NetNode, RpcPort
from .sim import Cpu, RandomStreams, Simulator, Tracer, run_until_complete

__all__ = ["SpriteCluster", "ServerHost"]


class ServerHost:
    """A dedicated file-server machine (no user processes, no kernel)."""

    def __init__(
        self,
        sim: Simulator,
        lan: Lan,
        name: str,
        params: ClusterParams,
        tracer: Tracer,
    ):
        self.sim = sim
        self.name = name
        self.node = NetNode(sim, name)
        lan.register(self.node)
        self.cpu = Cpu(sim, quantum=params.cpu_quantum, name=f"{name}-cpu")
        self.rpc = RpcPort(sim, lan, self.node, cpu=self.cpu, params=params)
        self.server = FileServer(
            sim, lan, self.node, self.rpc, self.cpu, params=params,
            tracer=tracer, name=name,
        )
        self.pipes = PipeService(sim, self.rpc, self.cpu, params)

    @property
    def address(self) -> int:
        return self.node.address


class SpriteCluster:
    """A complete simulated Sprite cluster."""

    def __init__(
        self,
        workstations: int = 4,
        file_servers: int = 1,
        params: Optional[ClusterParams] = None,
        seed: Optional[int] = None,
        trace: bool = False,
        vm_policy: Union[str, VmPolicy, None] = None,
        start_daemons: bool = True,
        cpu_speeds: Optional[List[float]] = None,
    ):
        if workstations < 1 or file_servers < 1:
            raise ValueError("need at least one workstation and one file server")
        if cpu_speeds is not None and len(cpu_speeds) != workstations:
            raise ValueError("cpu_speeds must have one entry per workstation")
        if params is None:
            params = ClusterParams(seed=seed or 0)
        elif seed is not None and seed != params.seed:
            raise ValueError(
                f"SpriteCluster(seed={seed}) disagrees with params.seed="
                f"{params.seed}; give the seed once"
            )
        self.params = params
        self.sim = Simulator()
        self.tracer = Tracer(enabled=trace)
        self.rng = RandomStreams(seed=params.seed)
        self.lan = Lan(self.sim, params=self.params, tracer=self.tracer)
        self.prefixes = PrefixTable()
        #: address -> kernel, shared by every UserContext for dispatch.
        self.kernels: Dict[int, SpriteKernel] = {}
        #: address -> migration manager.
        self.managers: Dict[int, MigrationManager] = {}
        #: Set by :class:`repro.checkpoint.CheckpointService` when the
        #: run uses checkpoint/restart; the invariant checker counts its
        #: intact images as accounted process state.
        self.checkpoints: Optional[Any] = None

        self.server_hosts: List[ServerHost] = []
        for i in range(file_servers):
            server_host = ServerHost(
                self.sim, self.lan, f"fs{i}", self.params, self.tracer
            )
            self.server_hosts.append(server_host)
        # The first server exports the root; extra servers get /srv<i>.
        self.prefixes.add("/", self.server_hosts[0].address)
        for i, server_host in enumerate(self.server_hosts[1:], start=1):
            self.prefixes.add(f"/srv{i}", server_host.address)

        self.hosts: List[Host] = []
        self.evictors: List[EvictionDaemon] = []
        for i in range(workstations):
            host = Host(
                self.sim,
                self.lan,
                f"ws{i}",
                self.prefixes,
                self.kernels,
                params=self.params,
                tracer=self.tracer,
                start_daemons=start_daemons,
                cpu_speed=cpu_speeds[i] if cpu_speeds else 1.0,
            )
            manager = MigrationManager(host, self.managers, policy=vm_policy)
            evictor = EvictionDaemon(manager, start=start_daemons)
            self.hosts.append(host)
            self.evictors.append(evictor)
        if start_daemons:
            # One bulk event batch starts every per-second load sampler.
            from .kernel.loadavg import LoadAverage

            LoadAverage.start_batched(
                self.sim, [host.loadavg for host in self.hosts]
            )

    # ------------------------------------------------------------------
    @property
    def file_server(self) -> FileServer:
        return self.server_hosts[0].server

    def host_by_address(self, address: int) -> Host:
        for host in self.hosts:
            if host.address == address:
                return host
        raise KeyError(f"no workstation at address {address}")

    def host_by_name(self, name: str) -> Host:
        for host in self.hosts:
            if host.name == name:
                return host
        raise KeyError(f"no workstation named {name}")

    def manager_of(self, host: Host) -> MigrationManager:
        return self.managers[host.address]

    # ------------------------------------------------------------------
    # Namespace seeding
    # ------------------------------------------------------------------
    def add_image(self, path: str, size: int = 256 * KB) -> None:
        """Pre-install a program binary in the shared namespace."""
        self.file_server.add_file(path, size=size)

    def add_file(self, path: str, size: int = 0, payload: Any = None) -> None:
        self.file_server.add_file(path, size=size, payload=payload)

    def standard_images(self) -> None:
        """The binaries the thesis's workloads touch constantly."""
        for name, size in [
            ("/bin/cc", 640 * KB),
            ("/bin/ld", 320 * KB),
            ("/bin/pmake", 384 * KB),
            ("/bin/sim", 512 * KB),
            ("/bin/sh", 128 * KB),
            ("/bin/mig", 64 * KB),
        ]:
            self.add_image(name, size)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def run_until_complete(self, task_or_gen: Any, name: str = "main") -> Any:
        return run_until_complete(self.sim, task_or_gen, name=name)

    def run_process(
        self, host: Host, program: Program, *args: Any, name: Optional[str] = None
    ) -> Any:
        """Spawn a process on ``host`` and drive the sim until it exits."""
        pcb, _ctx = host.spawn_process(program, *args, name=name)
        return self.run_until_complete(pcb.task)

    # ------------------------------------------------------------------
    # Cluster-wide views
    # ------------------------------------------------------------------
    def idle_hosts(self) -> List[Host]:
        return [host for host in self.hosts if host.is_available()]

    def migration_records(self):
        from .migration import collect_records

        return collect_records(self.managers.values())

    def observability(
        self,
        spans: bool = True,
        trace: bool = False,
        sample_period: Optional[float] = None,
    ):
        """Install and return a :class:`~repro.obs.ClusterObservability`
        for this cluster (spans, metrics hooks, optional sampler).  See
        ``docs/observability.md``."""
        from .obs import ClusterObservability

        return ClusterObservability.install(
            self, spans=spans, trace=trace, sample_period=sample_period
        )

    def faults(
        self,
        plan: Optional[Any] = None,
        service: Optional[Any] = None,
        detect_delay: Optional[float] = None,
    ):
        """Install and return a :class:`~repro.faults.FaultInjector`
        for this cluster (started if a plan was given).  See
        ``docs/faults.md``."""
        from .faults import FaultInjector

        injector = FaultInjector(
            self, plan=plan, service=service, detect_delay=detect_delay
        )
        return injector.start()

    def total_cpu_seconds(self) -> float:
        for host in self.hosts:
            host.cpu.sync()  # count computes still in flight to now
        return sum(host.cpu.total_demand for host in self.hosts)
