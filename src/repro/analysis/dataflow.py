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
from .core import dotted_name, enclosing_function, nested_suites, suffix_match

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
    transfer: Callable[[FunctionNode, Dict[Key, object]], object],
) -> Dict[Key, object]:
    """Iterate ``transfer`` over every function until summaries settle.

    ``transfer(fn, summaries)`` recomputes ``fn``'s summary, reading
    callee summaries from ``summaries`` (by key); when the result differs
    from the stored summary, every caller of ``fn`` (found once) is
    re-enqueued.
    Processing order is deterministic (sorted keys, FIFO worklist).
    """
    summaries: Dict[Key, object] = {
        key: initial(fn) for key, fn in graph.functions.items()
    }
    callers: Dict[Key, List[Key]] = {}
    pending = deque(sorted(graph.functions))
    queued: Set[Key] = set(pending)
    while pending:
        key = pending.popleft()
        queued.discard(key)
        fn = graph.functions[key]
        updated = transfer(fn, summaries)
        if updated != summaries[key]:
            summaries[key] = updated
            if key not in callers:
                callers[key] = [c.key for c in graph.callers_of(fn)]
            for caller in callers[key]:
                if caller not in queued:
                    queued.add(caller)
                    pending.append(caller)
    return summaries


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


#: The steps of an exception plan: ``(_CALLS, callee keys)``,
#: ``(_RAISE, name, origin)``, ``(_RERAISE,)`` (a bare ``raise``) and
#: ``(_TRY, body, ((caught names or None, handler), ...), else, finally)``.
_CALLS, _RAISE, _RERAISE, _TRY = range(4)


def _plan(graph: CallGraph, stmts: Iterable[ast.stmt], rel: str,
          steps: List[tuple]) -> List[tuple]:
    """Append a suite's steps to ``steps``, in the order their escapes
    merge: a statement's nested suites, then the calls in its own
    expressions.  A suite outside a ``try`` shares its parent's steps (a
    name keeps its first origin either way); defs and classes are
    skipped."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(stmt, (ast.Try, ast.TryStar)):
            handlers = tuple(
                (_handler_names(handler), _plan(graph, handler.body, rel, []))
                for handler in stmt.handlers
            )
            steps.append((_TRY, _plan(graph, stmt.body, rel, []), handlers,
                          _plan(graph, stmt.orelse, rel, []),
                          _plan(graph, stmt.finalbody, rel, [])))
            continue
        if isinstance(stmt, ast.Raise):
            if stmt.exc is None:
                steps.append((_RERAISE,))
            elif (name := _raised_name(stmt.exc)) is not None:
                steps.append((_RAISE, name, (rel, stmt.lineno)))
        else:
            for suite in nested_suites(stmt):
                _plan(graph, suite, rel, steps)
        calls = graph.calls_in(stmt)
        keys = calls and tuple(callee.key for call in calls
                               for callee in graph.call_targets(call))
        if keys and steps and steps[-1][0] == _CALLS:
            steps[-1] = (_CALLS, steps[-1][1] + keys)
        elif keys:
            steps.append((_CALLS, keys))
    return steps


def exception_escapes(graph: CallGraph) -> Dict[Key, Dict[str, Origin]]:
    """``fn.key -> {exception class name -> origin (rel, line)}`` of
    every exception that can escape the function, transitively."""
    covers = _Hierarchy(graph).covers
    plans = {
        key: _plan(graph, getattr(fn.node, "body", []), fn.rel, [])
        for key, fn in graph.functions.items()
    }

    def merge(out: Dict[str, Origin], names: Dict[str, Origin]) -> None:
        for name, origin in names.items():
            out.setdefault(name, origin)

    def replay(steps: List[tuple], caught: Dict[str, Origin],
               summaries: Dict[Key, object]) -> Dict[str, Origin]:
        out: Dict[str, Origin] = {}
        for step in steps:
            tag = step[0]
            if tag == _CALLS:
                for key in step[1]:
                    merge(out, summaries[key])  # type: ignore[arg-type]
            elif tag == _RAISE:
                out.setdefault(step[1], step[2])
            elif tag == _RERAISE:  # re-raises what the nearest handler caught
                merge(out, caught)
            else:
                _tag, body, handlers, orelse, finalbody = step
                survived = replay(body, caught, summaries)
                for names, handler in handlers:
                    if names is None:
                        taken, survived = survived, {}
                    else:
                        taken = {
                            name: origin
                            for name, origin in survived.items()
                            if any(covers(c, name) for c in names)
                        }
                        for name in taken:
                            del survived[name]
                    merge(out, replay(handler, taken, summaries))
                merge(out, survived)
                merge(out, replay(orelse, caught, summaries))
                merge(out, replay(finalbody, caught, summaries))
        return out

    def transfer(
        fn: FunctionNode, summaries: Dict[Key, object]
    ) -> Dict[str, Origin]:
        found = replay(plans[fn.key], {}, summaries)
        # Summaries only gain names, and a name keeps the first origin
        # found for it: on a call cycle that reaches two raise sites of
        # one class, "the first in statement order" depends on what the
        # callees knew at that visit and can flip for ever.
        found.update(summaries[fn.key])  # type: ignore[call-overload]
        return found

    summaries = fixpoint(graph, lambda fn: {}, transfer)
    return {key: dict(value) for key, value in summaries.items()}  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Wall-clock / entropy taint analysis
# ----------------------------------------------------------------------
#: Nodes that hold no name and no call: a read scan never expands them.
_NO_READS = (ast.Constant, ast.expr_context, ast.operator, ast.unaryop,
             ast.boolop, ast.cmpop)


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
                        seen.append(tuple(callee.key for callee in callees))
                elif isinstance(node, ast.Name):
                    seen.append(node.id)
                    continue  # only its Load/Store context below
                stack.extend(child for child in ast.iter_child_nodes(node)
                             if not isinstance(child, _NO_READS))
            found = reads[expr] = (tuple(seen), source)
        return found

    def transfer(
        fn: FunctionNode, summaries: Dict[Key, object]
    ) -> Optional[Origin]:
        tainted_locals: Dict[str, Origin] = {}

        def expr_taint(expr: ast.AST) -> Optional[Origin]:
            seen, source = reads_of(expr, fn.rel)
            for read in seen:
                if isinstance(read, str):
                    if read in tainted_locals:
                        return tainted_locals[read]
                    continue
                for key in read:
                    origin = summaries[key]
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
