"""Interprocedural wall-clock / entropy taint rule.

``rules_determinism`` flags a *direct* ``time.time()`` in sim code, but
a helper that returns ``time.time()`` laundered the value: the call
site looked clean, the helper lived in an exempt module (or carried a
justifying pragma for its own legitimate use), and the timestamp still
leaked into simulated state — breaking fixed-seed reproducibility two
modules away from the source.

This rule closes that hole with
:func:`~repro.analysis.dataflow.tainted_returns`: a function whose
return value derives from an ambient source (the determinism rules'
wall-clock/entropy table), directly or through any chain of callees, is
*tainted*, and every call to it from simulation code is flagged — at
the call site, pointing back at the originating source line.

A ``determinism-wallclock`` pragma at the source justifies the source's
own use (e.g. wall-clock profiling in ``obs/``); it deliberately does
**not** bless downstream consumption of the value inside the simulation,
so taint flows through pragma'd sources unchanged.

Exempt callers (same boundary as the direct rules): ``obs/``,
``metrics/``, ``workloads/``, ``baselines/``, plus the report/CLI
surface — host-side tooling may consume real time; the simulation may
not.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .core import Finding, ModuleInfo, Rule, Tree, dotted_name, register_rule
from .dataflow import tainted_returns
from .rules_determinism import _WALLCLOCK_SUFFIXES

__all__ = ["TaintedReturnRule"]

_EXEMPT_HEADS = {"obs", "metrics", "workloads", "baselines"}
_EXEMPT_FILES = {"report.py", "cli.py", "__main__.py"}


def _exempt(module: ModuleInfo) -> bool:
    head = module.rel.split("/", 1)[0]
    return head in _EXEMPT_HEADS or module.rel in _EXEMPT_FILES


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
            if _exempt(module):
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


register_rule(TaintedReturnRule())
