"""Module-state rules.

A process-wide counter or cache at module level outlives any one
cluster: the second cluster built in the same interpreter starts from
wherever the first one left the state, so ids drift, fixed-seed traces
stop being byte-identical, and a sweep's fingerprint comes to depend on
how many cells each worker process ran before.  That exact bug shipped once as ``fs/streams.py``'s global
stream-id ``itertools.count`` (papered over with a manual reset in the
cluster constructor) — now every cluster draws ids from its own
:class:`~repro.sim.StateRegistry` (``sim.state``), and this rule keeps
the next process-wide counter from creeping in.

What counts as module-level mutable state:

* any ``itertools.count(...)`` (or bare ``count(...)``) at module
  scope — a counter is state by construction, whatever it's named;
* a module-level name bound to a mutable container (dict/list/set
  literal or comprehension, ``dict()``/``list()``/``set()``,
  ``defaultdict``/``deque``/``Counter``/``OrderedDict``) unless the
  name is ALL_CAPS (constant by convention) or a dunder (``__all__``);
* any ``global NAME`` declaration inside a function — rebinding module
  scope at runtime is the same disease with extra steps.

Genuinely constant lookup tables should be ALL_CAPS; a deliberate
process-wide registry (rare — the lint registry itself is one) carries
a ``# lint: disable=state-module-mutable(reason)`` pragma.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Tuple

from .core import Finding, ModuleInfo, Rule, Tree, dotted_name, name_tail, register_rule

__all__ = ["ModuleMutableStateRule"]

_MUTABLE_CONSTRUCTORS = {
    "dict",
    "list",
    "set",
    "bytearray",
    "defaultdict",
    "deque",
    "Counter",
    "OrderedDict",
    "ChainMap",
}

_COUNTER_SUFFIXES = ("itertools.count", "count")


def _is_counter_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name in _COUNTER_SUFFIXES or name.endswith(".count")


def _mutable_value(node: ast.AST) -> Optional[str]:
    """Describe the mutable container ``node`` builds, or None."""
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "a dict"
    if isinstance(node, (ast.List, ast.ListComp)):
        return "a list"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Call):
        tail = name_tail(node.func)
        if tail in _MUTABLE_CONSTRUCTORS:
            return f"{tail}(...)"
    return None


def _constant_by_convention(name: str) -> bool:
    return name == name.upper() or (
        name.startswith("__") and name.endswith("__")
    )


def mutable_globals(
    module: ModuleInfo,
) -> Iterator[Tuple[ast.stmt, List[str], Optional[str]]]:
    """Module-level assignments that bind a counter or a mutable
    container: ``(statement, the plain names it binds, what the
    container is — None for a counter)``."""
    assert module.tree is not None
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        counter = _is_counter_call(value)
        what = None if counter else _mutable_value(value)
        if counter or what is not None:
            yield node, [t.id for t in targets if isinstance(t, ast.Name)], what


class ModuleMutableStateRule(Rule):
    id = "state-module-mutable"
    description = (
        "No module-level mutable state under src/repro: counters and "
        "caches live per-cluster in sim.state (StateRegistry); constant "
        "tables are ALL_CAPS; deliberate process-wide registries carry "
        "a pragma."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        for module in tree.parsed():
            for node, names, what in mutable_globals(module):
                yield from self._check_toplevel(module, node, names, what)
            for node in module.nodes_of(ast.Global):
                names = ", ".join(node.names)
                yield module.finding(
                    self.id,
                    node,
                    f"`global {names}` mutates module scope at "
                    "runtime; keep per-cluster state in sim.state "
                    "(StateRegistry)",
                )

    def _check_toplevel(self, module, node, names, what) -> Iterable[Finding]:
        if not names:
            return
        if what is None:
            yield module.finding(
                self.id,
                node,
                f"module-level counter `{names[0]}` is process-wide "
                "state shared by every cluster in the interpreter; "
                "allocate it per cluster via "
                'sim.state.counter("<component>.<name>")',
            )
            return
        flagged = [n for n in names if not _constant_by_convention(n)]
        if not flagged:
            return
        yield module.finding(
            self.id,
            node,
            f"module-level `{flagged[0]}` binds {what}: mutable "
            "process-wide state outlives any one cluster and breaks "
            "fixed-seed determinism; move it into sim.state, "
            "onto an instance, or rename ALL_CAPS if truly constant",
        )


register_rule(ModuleMutableStateRule())
