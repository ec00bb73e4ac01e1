"""RPC conformance rules.

``net/rpc.py``'s contract: services are registered by name with a
generator-function handler (``port.register(name, handler)``) and
invoked by name (``yield from port.call(dst, name, args)``).  The name
is a free-form string, so a typo on either side compiles fine and fails
only at runtime with an ``unknown service`` error on some code path a
test may never walk.  These rules close the loop statically:

* every called service name has a registration somewhere in the tree;
* every registered service name is called somewhere (dead services are
  usually a rename that missed the call sites);
* every registered handler is a generator function, since the RPC
  server drives handlers with ``yield from``;
* a handler registered ``idempotent=True`` opts out of the exactly-once
  dedup cache, so it must not mutate server state — a duplicated packet
  re-executes it.

Call-site names are resolved through module constants, class constants
(``self.GOSSIP_SERVICE``) and forwarding helpers: a function that
passes one of its own parameters into the service slot of ``.call``
(e.g. ``FsServer._callback``) has the literals collected from its call
sites, chased through the call graph to *any* forwarding depth
(:meth:`CallGraph.forwarded_args`) — a helper calling a helper calling
``.call`` resolves the same way.  Call sites whose argument is neither
a resolvable string nor a forwarded parameter are skipped.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from .callgraph import CallGraph
from .core import (
    Finding,
    ModuleInfo,
    Rule,
    Tree,
    dotted_name,
    name_tail,
    register_rule,
    resolve_str_arg,
)

_Site = Tuple[ModuleInfo, ast.AST]


def _is_rpc_receiver(receiver: ast.AST) -> bool:
    tail = name_tail(receiver)
    return tail == "rpc" or tail.startswith("port")


def _service_arg(call: ast.Call) -> Optional[ast.AST]:
    """The service-name slot of ``port.call(dst, service, ...)``."""
    if len(call.args) >= 2:
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "service":
            return keyword.value
    return None


def _collect(tree: Tree):
    """One pass over the tree: registrations, calls, forwarded literals
    (shared by the four rules below through ``tree.derived``)."""
    graph: CallGraph = tree.callgraph()
    registered: Dict[str, List[_Site]] = {}
    handlers: List[Tuple[ModuleInfo, ast.Call, ast.AST]] = []
    called: Dict[str, List[_Site]] = {}
    unresolved_calls: List[_Site] = []

    for module in tree.parsed():
        for node in module.nodes_of(ast.Call):
            target = node.func
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr == "register":
                name_arg = node.args[0] if node.args else None
                name = resolve_str_arg(module, node, name_arg)
                if name is None:
                    continue  # e.g. lan.register(node) — not a service
                registered.setdefault(name, []).append((module, node))
                if len(node.args) >= 2:
                    handlers.append((module, node, node.args[1]))
            elif target.attr == "call" and _is_rpc_receiver(target.value):
                arg = _service_arg(node)
                name = resolve_str_arg(module, node, arg)
                if name is not None:
                    called.setdefault(name, []).append((module, node))
                    continue
                # forwarding helper: the service slot holds one of the
                # enclosing function's own parameters — collect the
                # literals its (transitive) call sites pass in.
                sites = (
                    graph.forwarded_args(module, node, arg.id)
                    if isinstance(arg, ast.Name) else None
                )
                if sites is None:
                    unresolved_calls.append((module, node))
                    continue
                for cmodule, csite, carg in sites:
                    cname = resolve_str_arg(cmodule, csite, carg)
                    if cname is not None:
                        called.setdefault(cname, []).append((cmodule, csite))

    return registered, handlers, called, unresolved_calls


class UnregisteredServiceRule(Rule):
    id = "rpc-unregistered-service"
    description = (
        "Every service name passed to port.call must be registered "
        "somewhere in the tree."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        registered, _, called, unresolved = tree.derived(_collect)
        for name, sites in sorted(called.items()):
            if name in registered:
                continue
            for module, node in sites:
                yield module.finding(
                    self.id,
                    node,
                    f'service "{name}" is called but never registered '
                    "with any RpcPort",
                )
        for module, node in unresolved:
            yield module.finding(
                self.id,
                node,
                "service name is not statically resolvable; use a "
                "literal or a module/class constant",
            )


class UnusedServiceRule(Rule):
    id = "rpc-unused-service"
    description = (
        "Every registered service should have at least one call site "
        "(dead registrations are usually missed renames)."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        registered, _, called, _ = tree.derived(_collect)
        for name, sites in sorted(registered.items()):
            if name in called:
                continue
            for module, node in sites:
                yield module.finding(
                    self.id,
                    node,
                    f'service "{name}" is registered but no call site '
                    "references it",
                )


class HandlerNotGeneratorRule(Rule):
    id = "rpc-handler-not-generator"
    description = (
        "RPC handlers are driven with `yield from`; a registered "
        "handler must be a generator function."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        _, handlers, _, _ = tree.derived(_collect)
        for module, call, handler in handlers:
            func = _resolve_handler(module, handler)
            if func is None:
                continue  # can't resolve: don't guess
            if func not in module.generators:
                yield module.finding(
                    self.id,
                    call,
                    f"handler `{dotted_name(handler)}` is not a generator "
                    "function (no yield); the RPC server drives handlers "
                    "with `yield from`",
                )


#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
})


def _roots_at_self(node: ast.AST) -> bool:
    """Does this attribute/subscript chain start at ``self``?"""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _mutates_self(module: ModuleInfo, func: ast.AST) -> Optional[ast.AST]:
    """First statement in ``func`` that mutates ``self`` state, if any.

    Catches direct writes (``self.x = ...``, ``self.x[k] = ...``,
    ``self.x += ...``, ``del self.x[...]``) and in-place mutator calls
    (``self.cache.pop(...)``, ``self.seen.add(...)``).  Reads, locals
    and yields are fine — an idempotent handler may compute, just not
    leave a mark.
    """
    for node in module.subtree(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Tuple, ast.List)):
                    if any(_roots_at_self(el) for el in target.elts):
                        return node
                elif (
                    isinstance(target, (ast.Attribute, ast.Subscript))
                    and _roots_at_self(target)
                ):
                    return node
        elif isinstance(node, ast.Delete):
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                and _roots_at_self(t)
                for t in node.targets
            ):
                return node
        elif isinstance(node, ast.Call):
            target = node.func
            if (
                isinstance(target, ast.Attribute)
                and target.attr in _MUTATORS
                and _roots_at_self(target.value)
            ):
                return node
    return None


class IdempotentHandlerMutatesRule(Rule):
    id = "rpc-idempotency"
    description = (
        "A handler registered idempotent=True bypasses the exactly-once "
        "dedup cache; it must not mutate server state, or duplicated "
        "packets double-apply it."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        _, handlers, _, _ = tree.derived(_collect)
        for module, call, handler in handlers:
            if not any(
                kw.arg == "idempotent"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in call.keywords
            ):
                continue
            func = _resolve_handler(module, handler)
            if func is None:
                continue  # can't resolve: don't guess
            mutation = _mutates_self(module, func)
            if mutation is not None:
                yield module.finding(
                    self.id,
                    call,
                    f"handler `{dotted_name(handler)}` is registered "
                    "idempotent=True but mutates self state "
                    f"(line {mutation.lineno}); drop the flag so the "
                    "dedup cache replays it, or make it read-only",
                )


def _resolve_handler(
    module: ModuleInfo, handler: ast.AST
) -> Optional[ast.AST]:
    """Find the def a handler expression refers to, if it's local."""
    name: Optional[str] = None
    if isinstance(handler, ast.Attribute):
        name = handler.attr
    elif isinstance(handler, ast.Name):
        name = handler.id
    if name is None:
        return None
    for node in module.nodes_of(ast.FunctionDef, ast.AsyncFunctionDef):
        if node.name == name:
            return node
    return None


register_rule(UnregisteredServiceRule())
register_rule(UnusedServiceRule())
register_rule(HandlerNotGeneratorRule())
register_rule(IdempotentHandlerMutatesRule())
