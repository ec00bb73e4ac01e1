"""Observability guard rule.

The tracing layer's contract is zero cost when disabled: every
``tracer.emit`` / ``tracer.start_span`` / ``tracer.record_span`` call
site must be dominated by a cheap enabled-check so a disabled run never
builds event payloads or spans.  A guard counts wherever it actually
dominates the call, not just within a few source lines of it.

A call is considered guarded when, inside its enclosing function:

* an ancestor ``if``/``elif``/``while`` test mentions ``.enabled``,
  ``.spans_enabled`` or an ``is (not) None`` comparison, or a boolean
  expression short-circuits on one (``tracer.enabled and
  tracer.emit(...)``), or
* an earlier ``if`` with such a test, in the same suite (a function,
  ``if``/loop/``with`` body, ``try`` clause, ``except`` handler or
  ``case`` body), ends in ``return``/``raise``/``continue``/``break``
  (early-exit guard).

Sites that emit on behalf of callers carry
``# lint: disable=obs-unguarded-emit(<reason>)``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from .core import (
    Finding,
    ModuleInfo,
    Rule,
    Tree,
    call_args,
    dotted_name,
    name_tail,
    register_rule,
    resolve_str_arg,
)

#: method names whose call sites need a guard (matched on attribute
#: access, any receiver ending in ``tracer``: ``self.tracer.emit``,
#: ``host.tracer.record_span`` …)
_EMIT_ATTRS = {"emit", "start_span", "record_span"}
#: the tracer's two switches: records and spans
_GUARD_ATTRS = {"enabled", "spans_enabled"}

#: trees that *implement* the tracing layer are exempt, as in the old tool
_EXEMPT_DIRS = {"obs"}
_EXEMPT_FILES = {"sim/trace.py"}


class UnguardedEmitRule(Rule):
    id = "obs-unguarded-emit"
    description = (
        "tracer.emit / tracer.start_span / tracer.record_span must be "
        "dominated by an `enabled` / `is not None` guard in the enclosing "
        "function."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        for module in tree.parsed():
            head = module.rel.split("/", 1)[0]
            if head in _EXEMPT_DIRS or module.rel in _EXEMPT_FILES:
                continue
            for node in module.nodes_of(ast.Call):
                if not _is_emit_call(node):
                    continue
                if _is_guarded(module, node):
                    continue
                yield module.finding(
                    self.id,
                    node,
                    f"{dotted_name(node.func)}() is not dominated by an "
                    "enabled/None guard; wrap in `if tracer.enabled:` "
                    "(`if tracer.spans_enabled:` for spans) or mark "
                    "`# lint: disable=obs-unguarded-emit(<reason>)`",
                )


def _is_emit_call(call: ast.Call, attrs: Iterable[str] = _EMIT_ATTRS) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in attrs:
        return False
    return name_tail(func.value) == "tracer"


def _test_is_guard(test: ast.AST) -> bool:
    """Does this condition check enabledness or non-None-ness?"""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr in _GUARD_ATTRS:
            return True
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            if any(
                isinstance(cmp, ast.Constant) and cmp.value is None
                for cmp in node.comparators
            ):
                return True
    return False


def _suite_exits(body: List[ast.stmt]) -> bool:
    if not body:
        return False
    last = body[-1]
    return isinstance(last, (ast.Return, ast.Raise, ast.Continue, ast.Break))


def _is_guarded(module: ModuleInfo, call: ast.Call) -> bool:
    # Climb the parent chain: ``child`` is the ancestor of the call (or
    # the call) that hangs directly off ``parent``, so "which of
    # ``parent``'s suites holds the call" is an identity test on it.
    parents = module.parents
    child: ast.AST = call
    parent: Optional[ast.AST] = parents.get(call)
    while parent is not None:
        # ancestor conditional whose test is a guard and whose body
        # (not orelse) contains us
        if isinstance(parent, (ast.If, ast.While)):
            if _test_is_guard(parent.test) and _in_suite(parent.body, child):
                return True
        # short-circuit form: tracer.enabled and tracer.emit(...)
        if isinstance(parent, ast.BoolOp) and isinstance(parent.op, ast.And):
            index = parent.values.index(child) if child in parent.values else -1
            if index > 0 and any(
                _test_is_guard(value) for value in parent.values[:index]
            ):
                return True
        # conditional expression: emit(...) if tracer.enabled else None
        if isinstance(parent, ast.IfExp):
            if _test_is_guard(parent.test) and parent.body is child:
                return True
        # early-exit guard: a prior statement in the same suite is
        # `if not tracer.enabled: return`
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _early_exit_before(parent.body, child):
                return True
            return False  # stop at the function boundary
        if any(
            _early_exit_before(suite, child) for suite in _suites_of(parent)
        ):
            return True
        child = parent
        parent = parents.get(parent)
    return False


def _suites_of(node: ast.AST) -> List[List[ast.stmt]]:
    """Every statement list hanging directly off ``node``: the body and
    ``else`` of an ``if`` or loop, the clauses of a ``try``, the body of
    an ``except`` handler or of a ``case``."""
    suites = (getattr(node, name, None) for name in node._fields)
    return [
        suite for suite in suites
        if isinstance(suite, list) and suite and isinstance(suite[0], ast.stmt)
    ]


def _in_suite(suite: List[ast.stmt], child: ast.AST) -> bool:
    """Is ``child`` — a direct child of the suite's owner — one of the
    suite's statements?"""
    return any(stmt is child for stmt in suite)


def _early_exit_before(suite: List[ast.stmt], child: ast.AST) -> bool:
    """Is there an `if <guard-test>: return/raise/continue` earlier in
    this suite than ``child``, the statement holding the call?"""
    for index, stmt in enumerate(suite):
        if stmt is child:
            return any(
                isinstance(earlier, ast.If)
                and _test_is_guard(earlier.test)
                and _suite_exits(earlier.body)
                for earlier in suite[:index]
            )
    return False


class SpanCatalogueRule(Rule):
    """Span names must come from the registered catalogue.

    Critical-path attribution (:mod:`repro.obs.critpath`) keys on
    exact span-name strings; a site that invents (or typos) a name
    silently drops out of every analysis.
    This rule requires the ``name`` argument at each
    ``tracer.start_span(...)`` / ``tracer.record_span(...)`` call site
    to resolve to a member of :data:`repro.obs.spans.SPAN_CATALOGUE` —
    either as a resolvable string (literal / constant / parameter
    default) whose value is catalogued, or as a reference to one of the
    catalogue's own constants (``MIG_FREEZE``, ``RPC_CALL``, …).

    Wrapper functions that forward a ``name`` parameter (e.g. the
    migration mechanism's ``_span`` helper) are chased through the call
    graph (:meth:`CallGraph.forwarded_args`), across modules and
    through helpers of helpers: the wrapper is clean when every call
    site that feeds it passes a catalogued name.
    """

    id = "obs-span-catalogue"
    description = (
        "span names at tracer.start_span / tracer.record_span sites must "
        "resolve to a repro.obs.spans.SPAN_CATALOGUE member (constant or "
        "literal)."
    )

    def __init__(self) -> None:
        from ..obs import spans as spans_module

        self._catalogue = frozenset(spans_module.SPAN_CATALOGUE)
        #: constant name -> value, for sites that pass the constant.
        self._constants = {
            name: value
            for name, value in vars(spans_module).items()
            if isinstance(value, str) and value in self._catalogue
        }

    def check(self, tree: Tree) -> Iterable[Finding]:
        for module in tree.parsed():
            head = module.rel.split("/", 1)[0]
            if head == "obs":
                continue  # the layer's own implementation
            for node in module.nodes_of(ast.Call):
                if not _is_span_name_site(node):
                    continue
                problem = self._check_site(tree, module, node)
                if problem is not None:
                    yield module.finding(self.id, node, problem)

    # ------------------------------------------------------------------
    def _check_site(
        self, tree: Tree, module: ModuleInfo, call: ast.Call
    ) -> Optional[str]:
        """None when the site's name argument is catalogued, else the
        finding message."""
        args, kwargs = call_args(call)
        name_node = kwargs.get("name") if "name" in kwargs else (
            args[0] if args else None
        )
        if name_node is None:
            return "span call without a name argument"
        problem = self._check_name_node(module, call, name_node)
        if (
            problem is None
            or not isinstance(name_node, ast.Name)
            or resolve_str_arg(module, call, name_node) is not None
        ):
            return problem
        # An unresolvable name that is a parameter of the enclosing
        # wrapper: judge what its call sites, at any depth, pass in.
        sites = tree.callgraph().forwarded_args(module, call, name_node.id)
        if not sites:
            return problem  # not a parameter, or nothing calls the wrapper
        for cmodule, csite, carg in sites:
            problem = self._check_name_node(cmodule, csite, carg)
            if problem is not None:
                return (
                    f"forwarded via `{name_node.id}=...`: {problem} "
                    f"(caller at {cmodule.rel}:{csite.lineno})"
                )
        return None

    def _check_name_node(
        self, module: ModuleInfo, call: ast.Call, name_node: ast.AST
    ) -> Optional[str]:
        # A direct reference to a catalogue constant (imported name or
        # ``spans_module.MIG_FREEZE``-style attribute).
        symbol = None
        if isinstance(name_node, ast.Name):
            symbol = name_node.id
        elif isinstance(name_node, ast.Attribute):
            symbol = name_node.attr
        if symbol is not None and symbol in self._constants:
            return None
        # A resolvable string (literal, module/class constant, literal
        # parameter default) whose value is catalogued.
        value = resolve_str_arg(module, call, name_node)
        if value is not None:
            if value in self._catalogue:
                return None
            return (
                f"span name {value!r} is not in repro.obs.spans."
                "SPAN_CATALOGUE; register it there (and import the "
                "constant) instead of inlining the string"
            )
        return (
            f"span name argument `{ast.dump(name_node) if symbol is None else symbol}` "
            "cannot be resolved to a SPAN_CATALOGUE member"
        )


def _is_span_name_site(call: ast.Call) -> bool:
    """``<...>.tracer.start_span(...)`` / ``<...>.tracer.record_span(...)``
    sites — the emit sites whose first argument is a span name."""
    return _is_emit_call(call, ("start_span", "record_span"))


register_rule(UnguardedEmitRule())
register_rule(SpanCatalogueRule())
