"""Coroutine-protocol rule.

The engine's coroutines are plain generator functions: calling one
builds a generator object and runs *no* body code.  The classic
simulator bug is therefore a call site that treats a coroutine like a
function — ``self.fs.close(stream)`` as a bare statement silently does
nothing, ``yield rpc.call(...)`` hands the scheduler a generator object
instead of an Effect, and ``if port.recv():`` is always true.  Every
one of these compiles, runs, and quietly corrupts the simulation.

Using the call graph, any call whose resolved targets are *all*
generator functions is checked at its use site:

* discarded as an expression statement  →  forgot ``yield from``;
* ``yield f()`` (not ``yield from``)    →  yields the generator object;
* used as a truth value (``if``/``while`` test, ``not f()``) →
  a generator object is always truthy.

Requiring *all* candidates to be generators keeps the name-only
fallback resolution honest: ``obj.close()`` where some tree classes
define a plain ``close`` and others a coroutine ``close`` is ambiguous
and skipped rather than guessed at.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .core import Finding, Rule, Tree, dotted_name, register_rule

__all__ = ["DiscardedCoroutineRule"]


class DiscardedCoroutineRule(Rule):
    id = "coroutine-protocol"
    description = (
        "A call to a coroutine (generator function) must be driven — "
        "`yield from` it, spawn it, or return it; discarding the "
        "generator object or testing its truthiness is a no-op bug."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        graph = tree.callgraph()
        for module in tree.parsed():
            for node in module.nodes_of(ast.Call):
                targets = graph.call_targets(node)
                if not targets or not all(t.is_generator for t in targets):
                    continue
                parent = module.parents.get(node)
                if isinstance(parent, ast.Expr):
                    message = (
                        "call to coroutine `{}` discards the "
                        "generator object — no body code runs; drive it "
                        "with `yield from` or spawn it"
                    )
                elif isinstance(parent, ast.Yield):
                    message = (
                        "`yield {}(...)` yields the generator "
                        "object itself; use `yield from` to drive the "
                        "coroutine"
                    )
                elif (
                    isinstance(parent, (ast.If, ast.While))
                    and parent.test is node
                ):
                    message = (
                        "coroutine `{}` used as a condition: a "
                        "generator object is always truthy; drive it "
                        "with `yield from` and test the result"
                    )
                elif isinstance(parent, ast.UnaryOp) and isinstance(
                    parent.op, ast.Not
                ):
                    message = (
                        "`not {}(...)` is always False: the call "
                        "builds a generator object; drive it with "
                        "`yield from` and test the result"
                    )
                else:
                    continue
                yield module.finding(
                    self.id, node, message.format(dotted_name(node.func))
                )


register_rule(DiscardedCoroutineRule())
