"""Snapshot-safety rule for spawn factories.

PR 6's snapshot/restore pickles every unstarted :class:`Task` through
its zero-arg *factory* (``spawn(sim, coroutine_fn)``,
``Task(factory=...)``, ``functools.partial(...)`` factories).  Pickle
draws two hard lines the type system doesn't:

* a **lambda or nested closure** as a factory raises at capture time
  (``SnapshotError`` wrapping the pickle failure);
* any code the factory can reach that touches **module-level mutable
  state** silently breaks fork-equals-fresh determinism — the restored
  cluster re-runs the factory against whatever the *current* process
  left in that global, not the snapshotted value (module globals are
  not part of the snapshot).

This rule makes both failures static: every factory-form spawn site is
found, the factory callable is resolved through the call graph
(including ``partial``-wrapped and bound-method factories and callable
class instances via ``__call__``), and the transitive callee closure is
scanned for references to module-level mutable containers/counters —
including pragma-blessed ones, since a deliberate process-wide registry
is precisely what a snapshot cannot carry.

Immediate-generator spawns (``spawn(sim, worker(sim))``) are out of
scope: they have no factory and are rejected by the runtime if a
snapshot ever captures them.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionNode
from .core import Finding, ModuleInfo, Rule, Tree, register_rule
from .rules_state import _constant_by_convention, mutable_globals

__all__ = ["SnapshotSafetyRule"]


def _is_spawn_call(call: ast.Call) -> Optional[ast.AST]:
    """The factory-candidate argument of a spawn/Task site, if any."""
    func = call.func
    tail = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    if tail == "spawn" and len(call.args) >= 2:
        return call.args[1]
    if tail == "Task":
        for keyword in call.keywords:
            if keyword.arg == "factory":
                return keyword.value
    return None


def _locals_of(module: ModuleInfo, func: ast.AST) -> Set[str]:
    """Parameter and locally-assigned names (minus ``global`` decls)."""
    out: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            args.posonlyargs + args.args + args.kwonlyargs
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            out.add(arg.arg)
    declared_global: Set[str] = set()
    for node in module.subtree(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        out.add(leaf.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    out.add(leaf.id)
    return out - declared_global


class SnapshotSafetyRule(Rule):
    id = "snapshot-safety"
    description = (
        "Spawn factories must survive pickling: no lambda/closure "
        "factories, and nothing reachable from a factory may touch "
        "module-level mutable state."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        graph = tree.callgraph()
        #: module -> its mutable globals, *including* pragma-suppressed
        #: ones (a deliberate process-wide registry is still unsafe to
        #: touch from a snapshot factory)
        mutables: Dict[str, Dict[str, int]] = {
            module.rel: {
                name: node.lineno
                for node, names, _what in mutable_globals(module)
                for name in names
                if not _constant_by_convention(name)
            }
            for module in tree.parsed()
        }

        roots: Dict[Tuple[str, str], Tuple[FunctionNode, ModuleInfo,
                                           ast.AST]] = {}
        for module in tree.parsed():
            for node in module.nodes_of(ast.Call):
                factory = _is_spawn_call(node)
                if factory is not None:
                    yield from self._check_factory(
                        module, graph, factory, roots
                    )

        reported: Set[Tuple[str, int, str]] = set()
        for key in sorted(roots):
            root, site_module, site = roots[key]
            for fn in graph.reachable_from([root]):
                module = tree.module(fn.rel)
                if module is None:
                    continue
                table = mutables.get(fn.rel, {})
                if not table:
                    continue
                shadowed = _locals_of(module, fn.node)
                for name_node in module.subtree(fn.node):
                    if not isinstance(name_node, ast.Name):
                        continue
                    name = name_node.id
                    if name not in table or name in shadowed:
                        continue
                    item = (fn.rel, name_node.lineno, name)
                    if item in reported:
                        continue
                    reported.add(item)
                    yield module.finding(
                        self.id,
                        name_node,
                        f"`{fn.qualname}` is reachable from the spawn "
                        f"factory `{root.qualname}` "
                        f"({site_module.rel}:{site.lineno}) but touches "
                        f"module-level mutable `{name}` "
                        f"({fn.rel}:{table[name]}); module globals are "
                        "not captured by snapshots, so restore diverges "
                        "from the live run",
                    )

    def _check_factory(
        self,
        module: ModuleInfo,
        graph: CallGraph,
        factory: ast.AST,
        roots: Dict[Tuple[str, str], Tuple[FunctionNode, ModuleInfo,
                                           ast.AST]],
    ) -> Iterable[Finding]:
        if isinstance(factory, ast.Lambda):
            yield module.finding(
                self.id,
                factory,
                "lambda spawn factory is not picklable; snapshot capture "
                "raises SnapshotError — use a module-level function or "
                "functools.partial",
            )
            return
        targets = graph.ref_targets(factory)
        for target in targets:
            if target.is_nested:
                yield module.finding(
                    self.id,
                    factory,
                    f"spawn factory `{target.qualname}` is a nested "
                    "function (closure); pickle cannot capture it — "
                    "hoist it to module level or use functools.partial",
                )
                continue
            roots.setdefault(target.key, (target, module, factory))
        if targets or not isinstance(factory, ast.Call):
            return
        # spawn(sim, helper(...)) / Task(factory=make_factory(...)):
        # a Call in factory position either builds a generator (the
        # immediate-gen spawn form — no factory, out of scope) or
        # produces the factory; root at the producer so its partial
        # payload is in the reachable set.
        callees = graph.call_targets(factory)
        if callees and all(c.is_generator for c in callees):
            return
        for callee in callees:
            roots.setdefault(callee.key, (callee, module, factory))
        klass = graph.constructed_class(factory)
        if klass is not None:
            for method in graph.resolve_method(klass.name, "__call__"):
                roots.setdefault(method.key, (method, module, factory))


register_rule(SnapshotSafetyRule())
