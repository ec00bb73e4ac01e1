"""Summary-based interprocedural dataflow over the call graph.

:func:`fixpoint` is the generic engine: every function gets a summary,
a transfer function recomputes one function's summary from the bodies
and its callees' current summaries, and a worklist re-processes callers
whenever a callee's summary changes.  Summaries must grow monotonically
(set/dict union) for termination; recursion and mutual recursion are
just cycles the worklist iterates to a fixed point.

Two concrete analyses live here because several rules share them:

* :func:`exception_escapes` — for every function, the set of exception
  *class names* that can escape it, each mapped to the ``rel:line`` of
  the raise site it originated from.  ``try/except`` filtering is
  hierarchy-aware (tree classes via their base lists, builtins via the
  real builtin exception lattice), ``except``-clause bodies re-escape,
  and a bare ``raise`` inside a handler re-raises what the handler
  caught.
* :func:`tainted_returns` — which functions return a value derived from
  wall-clock / ambient entropy (``time.time()``, ``uuid.uuid4()``, …),
  propagated through local assignments and transitively through calls
  to other tainted functions.
"""

from __future__ import annotations

import ast
import builtins
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionNode, Key
from .core import dotted_name, enclosing_function, suffix_match

__all__ = [
    "exception_escapes",
    "fixpoint",
    "tainted_returns",
]

Origin = Tuple[str, int]  # (module rel, line) of the originating site


# ----------------------------------------------------------------------
# Generic engine
# ----------------------------------------------------------------------
def fixpoint(
    graph: CallGraph,
    initial: Callable[[FunctionNode], object],
    transfer: Callable[
        [FunctionNode, Callable[[FunctionNode], object]], object
    ],
) -> Dict[Key, object]:
    """Iterate ``transfer`` over every function until summaries settle.

    ``transfer(fn, summary_of)`` recomputes ``fn``'s summary, reading
    callee summaries through ``summary_of``; when the result differs
    from the stored summary, every caller of ``fn`` is re-enqueued.
    Processing order is deterministic (sorted keys, FIFO worklist).
    """
    summaries: Dict[Key, object] = {
        key: initial(fn) for key, fn in graph.functions.items()
    }

    def summary_of(fn: FunctionNode) -> object:
        return summaries[fn.key]

    pending = deque(sorted(graph.functions))
    queued: Set[Key] = set(pending)
    while pending:
        key = pending.popleft()
        queued.discard(key)
        fn = graph.functions[key]
        updated = transfer(fn, summary_of)
        if updated != summaries[key]:
            summaries[key] = updated
            for caller in graph.callers_of(fn):
                if caller.key not in queued:
                    queued.add(caller.key)
                    pending.append(caller.key)
    return summaries


def _header_calls(stmt: ast.stmt, holding: Set[ast.AST]) -> List[ast.Call]:
    """Calls in the expressions a statement *directly* owns — its test,
    iterable, targets, value, a ``case``'s pattern and guard — but not
    in nested statement bodies (those are walked recursively, so
    try/except filtering stays correct) and not in lambdas (their
    calls run when the lambda is called).  ``holding`` is the module's
    ``index.holding(ast.Call)``: nothing outside it is expanded."""
    if stmt not in holding:
        return []
    roots: List[Optional[ast.AST]] = []
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.match_case):  # its body is a suite
            roots += (child.pattern, child.guard)
        elif not isinstance(child, (ast.stmt, ast.ExceptHandler)):
            roots.append(child)
    wanted = holding.__contains__
    out: List[ast.Call] = []
    stack = list(filter(wanted, roots))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call):
            out.append(node)
        stack.extend(filter(wanted, ast.iter_child_nodes(node)))
    return out


# ----------------------------------------------------------------------
# Exception escape analysis
# ----------------------------------------------------------------------
class _Hierarchy:
    """Subclass checks across tree classes and real builtins."""

    def __init__(self, graph: CallGraph):
        self._bases: Dict[str, Set[str]] = {
            name: set(info.bases) for name, info in graph.classes.items()
        }
        self._cache: Dict[str, Set[str]] = {}

    def ancestors(self, name: str) -> Set[str]:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        out: Set[str] = set()
        queue = [name]
        while queue:
            current = queue.pop()
            if current in out:
                continue
            out.add(current)
            tree_bases = self._bases.get(current)
            if tree_bases:
                queue.extend(tree_bases)
            else:
                obj = getattr(builtins, current, None)
                if isinstance(obj, type):
                    out.update(k.__name__ for k in obj.__mro__)
        self._cache[name] = out
        return out

    def covers(self, caught: str, raised: str) -> bool:
        return caught in self.ancestors(raised)


def _raised_name(exc: ast.AST) -> Optional[str]:
    """Class name of ``raise X(...)`` / ``raise X`` — lowercase names
    are variables (re-raise of a caught object), not classes."""
    target = exc.func if isinstance(exc, ast.Call) else exc
    if isinstance(target, ast.Name):
        return target.id if target.id[:1].isupper() else None
    if isinstance(target, ast.Attribute):
        return target.attr if target.attr[:1].isupper() else None
    return None


def _handler_names(handler: ast.ExceptHandler) -> Optional[List[str]]:
    """Names an except clause catches; None means catch-everything."""
    node = handler.type
    if node is None:
        return None
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    names: List[str] = []
    for element in elements:
        if isinstance(element, ast.Name):
            names.append(element.id)
        elif isinstance(element, ast.Attribute):
            names.append(element.attr)
        else:
            return None  # dynamic except type: assume it catches all
    return names


def exception_escapes(graph: CallGraph) -> Dict[Key, Dict[str, Origin]]:
    """``fn.key -> {exception class name -> origin (rel, line)}`` of
    every exception that can escape the function, transitively."""
    hierarchy = _Hierarchy(graph)
    #: stmt -> (its nested suites, the callees of the calls in its own
    #: expressions): the fixpoint re-visits a body many times and
    #: neither changes between visits.
    parts: Dict[ast.stmt, Tuple[tuple, tuple]] = {}

    def parts_of(stmt: ast.stmt, rel: str) -> Tuple[tuple, tuple]:
        found = parts.get(stmt)
        if found is None:
            if isinstance(stmt, ast.Match):
                suites = tuple(case.body for case in stmt.cases)
            else:
                suites = tuple(
                    value
                    for _field, value in ast.iter_fields(stmt)
                    if isinstance(value, list)
                    and value
                    and isinstance(value[0], ast.stmt)
                )
            holding = graph.tree.module(rel).index.holding(ast.Call)
            callees = tuple(
                callee
                for call in _header_calls(stmt, holding)
                for callee in graph.call_targets(call)
            )
            found = parts[stmt] = (suites, callees)
        return found

    def escapes_of(
        stmts: Iterable[ast.stmt],
        rel: str,
        summary_of: Callable[[FunctionNode], object],
        caught_ctx: Dict[str, Origin],
    ) -> Dict[str, Origin]:
        out: Dict[str, Origin] = {}

        def merge(names: Dict[str, Origin]) -> None:
            for name, origin in names.items():
                out.setdefault(name, origin)

        def merge_callees(callees: Iterable[FunctionNode]) -> None:
            for callee in callees:
                merge(summary_of(callee))  # type: ignore[arg-type]

        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Raise):
                if stmt.exc is None:
                    # bare raise: re-raises whatever the nearest handler
                    # caught (the caller threads that set through)
                    merge(caught_ctx)
                else:
                    name = _raised_name(stmt.exc)
                    if name is not None:
                        out.setdefault(name, (rel, stmt.lineno))
                    # calls inside the raise expression can escape too
                    merge_callees(parts_of(stmt, rel)[1])
                continue
            if isinstance(stmt, (ast.Try, ast.TryStar)):
                body = escapes_of(stmt.body, rel, summary_of, caught_ctx)
                survived = dict(body)
                for handler in stmt.handlers:
                    caught_names = _handler_names(handler)
                    if caught_names is None:
                        taken = dict(survived)
                        survived = {}
                    else:
                        taken = {
                            name: origin
                            for name, origin in survived.items()
                            if any(
                                hierarchy.covers(c, name)
                                for c in caught_names
                            )
                        }
                        for name in taken:
                            survived.pop(name, None)
                    merge(
                        escapes_of(handler.body, rel, summary_of, taken)
                    )
                merge(survived)
                merge(escapes_of(stmt.orelse, rel, summary_of, caught_ctx))
                merge(
                    escapes_of(stmt.finalbody, rel, summary_of, caught_ctx)
                )
                continue
            # every other statement: recurse into any nested statement
            # suites, then fold in calls from its own expressions
            suites, callees = parts_of(stmt, rel)
            for suite in suites:
                merge(escapes_of(suite, rel, summary_of, caught_ctx))
            merge_callees(callees)
        return out

    def transfer(
        fn: FunctionNode, summary_of: Callable[[FunctionNode], object]
    ) -> Dict[str, Origin]:
        body = getattr(fn.node, "body", [])
        found = escapes_of(body, fn.rel, summary_of, {})
        # Summaries only gain names, and a name keeps the first origin
        # found for it: on a call cycle that reaches two raise sites of
        # one class, "the first in statement order" depends on what the
        # callees knew at that visit and can flip for ever.
        found.update(summary_of(fn))  # type: ignore[call-overload]
        return found

    summaries = fixpoint(graph, lambda fn: {}, transfer)
    return {key: dict(value) for key, value in summaries.items()}  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Wall-clock / entropy taint analysis
# ----------------------------------------------------------------------
def tainted_returns(
    graph: CallGraph, sources: Dict[str, str]
) -> Dict[Key, Origin]:
    """Functions whose *return value* derives from an ambient source.

    ``sources`` maps dotted-suffix -> human label (the determinism
    rules' wall-clock table).  The summary for a tainted function is the
    origin ``(rel, line)`` of the source call the value traces back to.
    Taint flows through local assignments (in statement order, iterated
    twice for simple loops) and through calls to tainted functions.
    """

    #: id(def) -> the assignments and returns of its own body (nested
    #: defs own theirs), in walk order — the order taint flows in.
    owned: Dict[int, List[ast.stmt]] = {}
    for module in graph.tree.parsed():
        for stmt in module.nodes_of(
            ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Return
        ):
            func = enclosing_function(module, stmt)
            if func is not None:
                owned.setdefault(id(func), []).append(stmt)

    #: expr -> what can taint it: the local names and resolved calls
    #: (their callees) it reads, in reading order (depth-first, last
    #: operand first, lambdas excluded), up to the first source call,
    #: whose origin ends the scan.
    reads: Dict[ast.AST, Tuple[tuple, Optional[Origin]]] = {}

    def reads_of(expr: ast.AST, rel: str) -> Tuple[tuple, Optional[Origin]]:
        found = reads.get(expr)
        if found is None:
            seen: List[object] = []
            source: Optional[Origin] = None
            stack: List[ast.AST] = [expr]
            while stack:
                node = stack.pop()
                if isinstance(node, ast.Lambda):
                    continue
                if isinstance(node, ast.Call):
                    if suffix_match(dotted_name(node.func), sources):
                        source = (rel, node.lineno)
                        break
                    callees = graph.call_targets(node)
                    if callees:
                        seen.append(callees)
                elif isinstance(node, ast.Name):
                    seen.append(node.id)
                    continue  # only its Load/Store context below
                stack.extend(ast.iter_child_nodes(node))
            found = reads[expr] = (tuple(seen), source)
        return found

    def transfer(
        fn: FunctionNode, summary_of: Callable[[FunctionNode], object]
    ) -> Optional[Origin]:
        tainted_locals: Dict[str, Origin] = {}

        def expr_taint(expr: ast.AST) -> Optional[Origin]:
            seen, source = reads_of(expr, fn.rel)
            for read in seen:
                if isinstance(read, str):
                    if read in tainted_locals:
                        return tainted_locals[read]
                    continue
                for callee in read:
                    origin = summary_of(callee)
                    if origin is not None:
                        return origin  # type: ignore[return-value]
            return source

        result: Optional[Origin] = None
        for _ in range(2):  # second pass settles loop-carried locals
            for stmt in owned.get(id(fn.node), ()):
                if stmt.value is None:  # bare return / annotation only
                    continue
                origin = expr_taint(stmt.value)
                if origin is None:
                    continue
                if isinstance(stmt, ast.Return):
                    if result is None:
                        result = origin
                    continue
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            tainted_locals[leaf.id] = origin
        return result

    summaries = fixpoint(graph, lambda fn: None, transfer)
    return {
        key: origin  # type: ignore[misc]
        for key, origin in summaries.items()
        if origin is not None
    }
