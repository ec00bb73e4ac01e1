"""Determinism rules.

The simulator's headline property is that a fixed seed yields a
byte-identical event trace (golden tests in
``tests/golden_engine_determinism.json``).  That only holds if no code
under ``src/repro`` consults wall clocks or ambient randomness, all
randomness flows through named :class:`~repro.sim.random.RandomStreams`
substreams, and nothing iterates an unordered container into the event
schedule or the network.

``determinism-wallclock`` and ``determinism-taint`` ask one question of
one source table (:data:`_WALLCLOCK_SUFFIXES`) at two depths, both
through :class:`~repro.analysis.core.CallMatcher` (so ``import time as
t; t.time()`` and ``from uuid import uuid4; uuid4()`` count): the first
flags a *direct* ``time.time()``; the second flags, at the call site
and naming the source line, every call from simulation code to a
function whose return value derives from a source through any chain of
callees (:func:`~repro.analysis.dataflow.tainted_returns`) — a helper
returning ``time.time()`` would launder it past the direct rule.  A
``determinism-wallclock`` pragma justifies the source's own use, not
consuming the value in the simulation: taint flows through pragma'd
sources.  Host-side callers (``obs/``, ``workloads/``, ``baselines/``,
the report/CLI surface) may consume real time and are exempt.
"""

from __future__ import annotations

import ast
import itertools
from typing import Dict, Iterable, List, Optional, Tuple

from .core import (
    CallMatcher,
    Finding,
    ModuleInfo,
    Rule,
    Tree,
    dotted_name,
    name_tail,
    register_rule,
    resolve_str_arg,
)
from .dataflow import tainted_returns

#: call targets (matched by dotted-name suffix) that read wall clocks or
#: OS entropy — both vary run-to-run and poison trace fingerprints.
_WALLCLOCK_SUFFIXES = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "datetime.now": "wall-clock read",
    "datetime.utcnow": "wall-clock read",
    "datetime.today": "wall-clock read",
    "date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "uuid.uuid1": "host/time-derived UUID",
    "uuid.uuid4": "OS-entropy UUID",
}
#: roots of the attribute chains :class:`GlobalRandomRule` looks at
_NUMPY_ROOTS = {"np", "numpy"}

#: callers the taint rule lets consume real time
_TAINT_EXEMPT_HEADS = {"obs", "workloads", "baselines"}
_TAINT_EXEMPT_FILES = {"report.py", "cli.py", "__main__.py"}

#: receiver names whose ``.stream(name)`` method is the sanctioned RNG
#: substream accessor (RandomStreams instances around the tree).
_STREAM_RECEIVERS = {"rng", "streams", "random_streams"}

#: effectful calls: reaching one of these from iteration over an
#: unordered container injects that container's order into the event
#: schedule or onto the wire.
_EFFECT_SUFFIXES = {
    "schedule",
    "defer",
    "send",
    "broadcast",
    "transfer",
    "call",
    "spawn",
    "try_put",
    "put",
    "trigger",
    "fail",
    "interrupt",
    "emit",
}


class WallClockRule(Rule):
    id = "determinism-wallclock"
    description = (
        "No wall-clock, OS-entropy, or UUID reads inside src/repro; "
        "simulated time comes from engine.now."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        matcher = CallMatcher(tree, _WALLCLOCK_SUFFIXES)
        for module in tree.parsed():
            for node in module.nodes_of(ast.Call):
                match = matcher.match(module, node.func)
                if match is not None:
                    name, suffix = match
                    yield module.finding(
                        self.id,
                        node,
                        f"{name}() is a {_WALLCLOCK_SUFFIXES[suffix]}; use "
                        "engine.now / cluster.rng for anything trace-visible",
                    )


class TaintedReturnRule(Rule):
    id = "determinism-taint"
    description = (
        "Simulation code must not consume helper functions whose return "
        "value derives from wall-clock or ambient entropy, however many "
        "calls removed from the source."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        graph = tree.callgraph()
        tainted = tainted_returns(graph, _WALLCLOCK_SUFFIXES)
        if not tainted:
            return
        for module in tree.parsed():
            if (
                module.rel.split("/", 1)[0] in _TAINT_EXEMPT_HEADS
                or module.rel in _TAINT_EXEMPT_FILES
            ):
                continue
            for node in module.nodes_of(ast.Call):
                for callee in graph.call_targets(node):
                    origin = tainted.get(callee.key)
                    if origin is None:
                        continue
                    src_rel, src_line = origin
                    yield module.finding(
                        self.id,
                        node,
                        f"`{dotted_name(node.func)}(...)` returns a "
                        "wall-clock/entropy-derived value (source at "
                        f"{src_rel}:{src_line}); sim code must draw "
                        "time from the engine and randomness from named "
                        "rng streams",
                    )
                    break  # one finding per call site


class GlobalRandomRule(Rule):
    id = "determinism-global-random"
    description = (
        "No stdlib `random` module and no numpy.random, seeded or not; "
        "randomness must come from repro.sim.random's streams."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        for module in tree.parsed():
            # One bucket per type: a key of the three would scan every
            # node of the module to merge them in walk order, and the
            # findings are sorted by line anyway.
            for node in itertools.chain(
                module.nodes_of(ast.Import),
                module.nodes_of(ast.ImportFrom),
                module.nodes_of(ast.Attribute),
            ):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    # level > 0 is a relative import (e.g. sim/.random)
                    if node.level > 0:
                        continue
                    names = [node.module or ""] + [
                        f"numpy.{alias.name}"
                        for alias in node.names
                        if node.module == "numpy"
                    ]
                else:
                    if _chain_root(node) in _NUMPY_ROOTS:
                        name = dotted_name(node)
                        if name.startswith(("np.random.", "numpy.random.")):
                            yield self._numpy(module, node, name)
                    continue
                for name in names:
                    if name == "random" or name.startswith("random."):
                        yield module.finding(
                            self.id,
                            node,
                            "stdlib `random` is globally seeded state; "
                            "use cluster.rng.stream(name)",
                        )
                    elif name == "numpy.random" or name.startswith("numpy.random."):
                        yield self._numpy(module, node, name)

    def _numpy(self, module: ModuleInfo, node: ast.AST, name: str) -> Finding:
        return module.finding(
            self.id,
            node,
            f"{name} is numpy's RNG, which the runtime does not import; "
            "draw from repro.sim.random (cluster.rng.stream(name), or "
            "Rng(seed))",
        )


def _chain_root(node: ast.Attribute) -> Optional[str]:
    """The ``Name`` an attribute chain starts from, if it starts from one."""
    value = node.value
    while isinstance(value, ast.Attribute):
        value = value.value
    return value.id if isinstance(value, ast.Name) else None


class RngStreamLiteralRule(Rule):
    id = "determinism-rng-stream"
    description = (
        "RandomStreams.stream(name) must take a resolvable string "
        "literal so stream names can be audited for collisions."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        for module, call, resolved in tree.derived(_stream_calls):
            if resolved is None:
                yield module.finding(
                    self.id,
                    call,
                    "stream name is not a resolvable string literal "
                    "(literal, module/class constant, or param default)",
                )


class StreamCollisionRule(Rule):
    id = "determinism-stream-collision"
    description = (
        "The same RNG substream name drawn from two different modules "
        "couples their random sequences."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        sites: Dict[str, List[Tuple[ModuleInfo, ast.Call]]] = {}
        for module, call, resolved in tree.derived(_stream_calls):
            if resolved is not None:
                sites.setdefault(resolved, []).append((module, call))
        for name, uses in sorted(sites.items()):
            files = {module.rel for module, _ in uses}
            if len(files) < 2:
                continue
            for module, call in uses:
                others = ", ".join(sorted(files - {module.rel}))
                yield module.finding(
                    self.id,
                    call,
                    f'stream name "{name}" is also drawn in {others}; '
                    "shared substreams couple unrelated random sequences",
                )


def _stream_calls(
    tree: Tree,
) -> List[Tuple[ModuleInfo, ast.Call, Optional[str]]]:
    """Every ``<streams>.stream(name)`` site with its resolved name
    (shared by the two stream rules through ``tree.derived``)."""
    sites: List[Tuple[ModuleInfo, ast.Call, Optional[str]]] = []
    for module in tree.parsed():
        for node in module.nodes_of(ast.Call):
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "stream"):
                continue
            if name_tail(func.value) not in _STREAM_RECEIVERS:
                continue
            arg = node.args[0] if node.args else None
            sites.append((module, node, resolve_str_arg(module, node, arg)))
    return sites


class UnorderedIterRule(Rule):
    id = "determinism-unordered-iter"
    description = (
        "for-loops over dict views / sets whose bodies schedule, send, "
        "or spawn must iterate sorted(...)."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        for module in tree.parsed():
            for node in module.nodes_of(ast.For):
                what = _unordered_source(node.iter)
                if what is None:
                    continue
                effect = _first_effect(module, node)
                if effect is None:
                    continue
                yield module.finding(
                    self.id,
                    node,
                    f"iterating {what} feeds {effect}() — wrap the "
                    "iterable in sorted() to pin the order",
                )


def _unordered_source(iter_node: ast.AST) -> Optional[str]:
    """Name the unordered container being iterated, or None if ordered."""
    if isinstance(iter_node, ast.Call):
        func = iter_node.func
        if isinstance(func, ast.Name):
            if func.id == "sorted":
                return None
            if func.id in ("set", "frozenset", "dict"):
                return f"{func.id}(...)"
            if func.id in ("list", "tuple", "enumerate", "reversed", "zip"):
                # ordered wrappers: recurse into the first argument
                if iter_node.args:
                    return _unordered_source(iter_node.args[0])
                return None
            return None
        if isinstance(func, ast.Attribute) and func.attr in (
            "keys",
            "values",
            "items",
        ):
            return f"{dotted_name(func)}()"
        return None
    if isinstance(iter_node, ast.Set):
        return "a set literal"
    if isinstance(iter_node, ast.SetComp):
        return "a set comprehension"
    return None


def _first_effect(module: ModuleInfo, loop: ast.For) -> Optional[str]:
    """First effectful call (or yield) inside the loop body, if any."""
    for child in loop.body + loop.orelse:
        for node in module.subtree(child):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yield"
            if isinstance(node, ast.Call):
                tail = name_tail(node.func)
                if tail in _EFFECT_SUFFIXES:
                    return tail
    return None


register_rule(WallClockRule())
register_rule(TaintedReturnRule())
register_rule(GlobalRandomRule())
register_rule(RngStreamLiteralRule())
register_rule(StreamCollisionRule())
register_rule(UnorderedIterRule())
