"""Shared fixtures: a miniature cluster of FS clients and servers, the
parsed source tree the whole-repository audits read, and the one lint
of ``src/repro`` the linter's live-tree tests read.

Kernel-free harness used by the file-system and network tests; the
kernel tests build full hosts via repro.cluster instead.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import sys
from types import SimpleNamespace
from typing import Generator, List, Tuple

import pytest

from repro.analysis import core, run_lint
from repro.analysis.core import Tree
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


#: The live tree of the linter's tests, read through :func:`live_lint`.
SRC_REPRO = REPO_ROOT / "src" / "repro"
#: The tests of tests/test_analysis.py and tests/test_callgraph.py that
#: lint :data:`SRC_REPRO` themselves: the collector test must start
#: cold, and the injected-violation tests lint a mutated copy.
COLD_LIVE_TREE_TESTS = frozenset({
    "test_a_lint_starts_no_collection_and_leaves_its_tree_collectable",
    "test_live_tree_injected_violation_fails",
    "test_live_tree_injected_violation_json_is_exact",
})
_load = vars(Tree)["load"].__func__


@functools.lru_cache(maxsize=None)
def live_lint() -> SimpleNamespace:
    """``run_lint(SRC_REPRO)`` once per session: its ``result``, the
    ``tree`` it loaded (its call graph built), and how often it called
    ``ast.iter_child_nodes`` (``walks``) and ``dotted_name`` (``names``,
    counted in the analysis modules ``named_in``).  Read it, don't
    mutate it."""
    run = SimpleNamespace(walks=0, names=0)
    real_walk, real_name = ast.iter_child_nodes, core.dotted_name

    def walk(node):
        run.walks += 1
        return real_walk(node)

    def name(node):
        run.names += 1
        return real_name(node)

    def keeping(cls, root):
        run.tree = _load(cls, root)
        return run.tree

    run.named_in = tuple(
        key for key, module in list(sys.modules.items())
        if key.startswith("repro.analysis")
        and getattr(module, "dotted_name", None) is real_name
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ast, "iter_child_nodes", walk)
        for key in run.named_in:
            patch.setattr(sys.modules[key], "dotted_name", name)
        patch.setattr(Tree, "load", classmethod(keeping))
        run.result = run_lint(SRC_REPRO)
    return run


@pytest.fixture(autouse=True)
def one_live_lint(request, monkeypatch):
    """Autouse where imported: a test that loads, lints or graphs
    :data:`SRC_REPRO` (each starts at ``Tree.load``) fails unless
    :data:`COLD_LIVE_TREE_TESTS` names it."""
    def guarded(cls, root):
        if pathlib.Path(root).resolve() == SRC_REPRO:
            pytest.fail(f"{request.node.name} loads src/repro cold; "
                        "read tests.helpers.live_lint()", pytrace=False)
        return _load(cls, root)

    if request.node.originalname not in COLD_LIVE_TREE_TESTS:
        monkeypatch.setattr(Tree, "load", classmethod(guarded))


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
