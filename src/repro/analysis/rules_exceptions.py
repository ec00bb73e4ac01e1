"""Exception-flow rule (interprocedural successor of ``rules_errors``).

PR 3/4 unified failure handling behind two roots — ``net/errors.py``'s
``RpcError`` tree and ``fs/errors.py``'s ``FsError`` tree — so that
every retry/abort/rollback path can catch one ancestor.  The old rule
only saw *direct* ``raise`` statements inside ``net/``, ``fs/`` and
``migration/``; a handler calling a kernel helper that raises
``RuntimeError`` three frames down sailed straight past it and past
``except RpcError`` at runtime.

This rule propagates raised exception types transitively along the call
graph (:func:`~repro.analysis.dataflow.exception_escapes`, with
hierarchy-aware ``try/except`` filtering) and checks them at the
*entry points* whose contract the hierarchy is: every function defined
under ``net/``, ``fs/``, ``migration/`` or ``checkpoint/`` (RPC plumbing,
txn steps, checkpoint daemons) plus every registered RPC handler
wherever it lives.  An escaping builtin outside the allowed
programmer-error set is reported at the *raise site* that originates
it, so the fix (derive from RpcError/FsError) and any justifying pragma
land where the code is.

As before, ``ValueError``/``TypeError``/``NotImplementedError``/
``AssertionError``/``KeyError``/``StopIteration`` signal bugs in the
simulation itself and are allowed to crash loudly anywhere.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, Iterable, List, Set, Tuple

from .callgraph import CallGraph, FunctionNode
from .core import Finding, Rule, Tree, register_rule
from .dataflow import exception_escapes

__all__ = ["ExceptionFlowRule"]

_SCOPED_DIRS = ("net/", "fs/", "migration/", "checkpoint/")
_HIERARCHY_FILES = ("net/errors.py", "fs/errors.py")

#: builtins that indicate a bug in the code, not a simulated failure —
#: these should crash the run loudly and are allowed anywhere.
_ALLOWED_BUILTINS = {
    "ValueError",
    "TypeError",
    "NotImplementedError",
    "AssertionError",
    "KeyError",
    "StopIteration",
}


def _builtin_exceptions() -> Set[str]:
    names = set()
    for name in dir(builtins):
        obj = getattr(builtins, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            names.add(name)
    return names


def compliant_classes(tree: Tree) -> Set[str]:
    """Classes in the declared hierarchies plus everything transitively
    deriving from one, wherever it is defined."""
    bases: Dict[str, Set[str]] = {}
    seeds: Set[str] = set()
    for module in tree.parsed():
        for node in module.nodes_of(ast.ClassDef):
            base_names = {
                base.id if isinstance(base, ast.Name) else base.attr
                for base in node.bases
                if isinstance(base, (ast.Name, ast.Attribute))
            }
            bases[node.name] = base_names
            if module.rel in _HIERARCHY_FILES:
                seeds.add(node.name)
    compliant = set(seeds)
    changed = True
    while changed:
        changed = False
        for name, base_names in bases.items():
            if name not in compliant and base_names & compliant:
                compliant.add(name)
                changed = True
    return compliant


def _entry_points(tree: Tree, graph: CallGraph) -> List[FunctionNode]:
    """Scoped-dir functions plus registered RPC handlers, sorted."""
    entries: Dict[Tuple[str, str], FunctionNode] = {}
    for fn in graph.functions.values():
        if fn.rel.startswith(_SCOPED_DIRS):
            entries[fn.key] = fn
    # handlers registered anywhere: port.register("name", self._handler)
    for module in tree.parsed():
        for node in module.nodes_of(ast.Call):
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr == "register"
            ):
                continue
            for arg in node.args:
                for handler in graph.ref_targets(arg):
                    entries[handler.key] = handler
    return [entries[key] for key in sorted(entries)]


class ExceptionFlowRule(Rule):
    id = "exception-flow"
    description = (
        "Exceptions escaping net/, fs/, migration/ and checkpoint/ "
        "entry points (transitively, through every callee) must belong "
        "to the RpcError / FsError hierarchies or the programmer-error "
        "builtins."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        compliant = compliant_classes(tree)
        if not compliant:
            return  # fixture tree with no hierarchy files: rule is inert
        banned = _builtin_exceptions() - _ALLOWED_BUILTINS
        graph = tree.callgraph()
        escapes = exception_escapes(graph)
        reported: Set[Tuple[str, int, str]] = set()
        for entry in _entry_points(tree, graph):
            for name, (rel, line) in sorted(escapes[entry.key].items()):
                if name in compliant or name not in banned:
                    continue
                site = (rel, line, name)
                if site in reported:
                    continue
                reported.add(site)
                origin = tree.module(rel)
                if origin is None:
                    continue
                in_entry = entry.key == (rel, _qualname_at(graph, rel, line))
                via = (
                    ""
                    if in_entry
                    else f" (escapes `{entry.qualname}` in {entry.rel})"
                )
                yield origin.finding(
                    self.id,
                    line,
                    f"builtin {name} raised here escapes a hierarchy "
                    f"entry point{via}; derive from RpcError "
                    "(net/errors.py) or FsError (fs/errors.py) so "
                    "unified except/retry paths catch it",
                )


def _qualname_at(graph: CallGraph, rel: str, line: int) -> str:
    """Qualname of the function containing (rel, line), best-effort."""
    best = ""
    best_line = -1
    for fn in graph.functions.values():
        if fn.rel != rel:
            continue
        end = getattr(fn.node, "end_lineno", fn.line)
        if fn.line <= line <= (end or fn.line) and fn.line > best_line:
            best, best_line = fn.qualname, fn.line
    return best


register_rule(ExceptionFlowRule())
