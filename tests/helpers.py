"""Shared fixtures: a miniature cluster of FS clients and servers, and
the parsed source tree the whole-repository audits read.

Kernel-free harness used by the file-system and network tests; the
kernel tests build full hosts via repro.cluster instead.
"""

from __future__ import annotations

import ast
import functools
import pathlib
from typing import Generator, List, Tuple

from repro.config import ClusterParams
from repro.fs import FileServer, FsClient, PdevRegistry, PrefixTable
from repro.net import Lan, NetNode, RpcPort
from repro.sim import Cpu, Simulator, run_until_complete

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
#: The trees a source audit reads: everything that may set or read the
#: program's state.
SCANNED = ("src", "tests", "benchmarks", "examples", "tools")


@functools.lru_cache(maxsize=None)
def parsed_sources() -> Tuple[Tuple[pathlib.Path, List[ast.AST]], ...]:
    """``(path, nodes)`` of every ``.py`` file under :data:`SCANNED`, in
    path order: ``nodes`` is ``list(ast.walk(tree))``, the module first.
    Parsed and walked once for every audit of a test run; the nodes are
    shared, so read them, don't mutate them."""
    return tuple(
        (path, list(ast.walk(ast.parse(path.read_text()))))
        for top in SCANNED
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
    )


class FsHost:
    """A bare host: node + cpu + rpc (+ optional fs roles)."""

    def __init__(self, sim: Simulator, lan: Lan, name: str):
        self.sim = sim
        self.lan = lan
        self.name = name
        self.node = NetNode(sim, name)
        lan.register(self.node)
        self.cpu = Cpu(sim, quantum=lan.params.cpu_quantum, name=f"{name}-cpu")
        self.rpc = RpcPort(sim, lan, self.node, cpu=self.cpu)
        self.fs: FsClient | None = None
        self.server: FileServer | None = None
        self.pdevs: PdevRegistry | None = None

    @property
    def address(self) -> int:
        return self.node.address


class MiniCluster:
    """One file server plus N client hosts on a LAN."""

    def __init__(self, clients: int = 2, seed: int = 0, **param_overrides):
        self.params = ClusterParams(seed=seed).clone(**param_overrides)
        self.sim = Simulator()
        self.lan = Lan(self.sim, params=self.params)
        self.server_host = FsHost(self.sim, self.lan, "server")
        self.server = FileServer(
            self.sim,
            self.lan,
            self.server_host.node,
            self.server_host.rpc,
            self.server_host.cpu,
            params=self.params,
        )
        self.server_host.server = self.server
        self.prefixes = PrefixTable()
        self.prefixes.add("/", self.server_host.address)
        self.clients: List[FsHost] = []
        for i in range(clients):
            host = FsHost(self.sim, self.lan, f"client{i}")
            host.fs = FsClient(
                self.sim,
                self.lan,
                host.node,
                host.rpc,
                host.cpu,
                self.prefixes,
                params=self.params,
            )
            host.pdevs = PdevRegistry(self.sim, host.rpc, host.cpu, self.params)
            self.clients.append(host)

    def run(self, coro: Generator, name: str = "test"):
        """Drive one coroutine to completion and return its result."""
        return run_until_complete(self.sim, coro, name=name)
