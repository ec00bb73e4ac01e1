"""Static analysis for the reproduction's whole-codebase invariants.

The runtime guarantees this repo advertises — byte-identical fixed-seed
traces, zero-cost-when-disabled tracing, crash-consistent migration
transactions — are properties of *every* call site, not just the ones a
test happens to exercise.  This package checks them statically, on the
AST, so a violating PR fails CI even when no test covers the new code:

* :mod:`.rules_determinism` — no wall-clock or ambient randomness,
  directly or laundered through helper returns; named RNG substreams;
  ordered iteration into effectful calls.
* :mod:`.rules_observability` — every trace/span emission dominated by
  an ``enabled`` / ``is not None`` guard.
* :mod:`.rules_rpc` — service names registered and called consistently;
  handlers are generator coroutines.
* :mod:`.rules_txn` — journaled steps come from ``TXN_STEPS``; undo-log
  kinds are pushed and replayed symmetrically.
* :mod:`.rules_exceptions` — exceptions escaping ``net/``, ``fs/``,
  ``migration/`` and ``checkpoint/`` entry points (transitively, along
  the call graph) stay inside the unified error hierarchies.
* :mod:`.rules_state` — no module-level mutable state (process-wide
  counters/caches); per-cluster state lives in ``sim.state``.
* :mod:`.rules_coroutine` — coroutine calls are driven (`yield from`/
  spawn), never discarded or truth-tested.

The interprocedural rules share one whole-tree call graph
(:mod:`.callgraph`) and a summary-based dataflow engine
(:mod:`.dataflow`); ``python -m repro lint --graph`` is the dead-code
gate (``--json``: the graph dump).

Run it as ``python -m repro lint``; see ``docs/static-analysis.md`` for
the rule catalogue and the ``# lint: disable=RULE(reason)`` pragma —
the only suppression: a finding is fixed or carries a reason.
"""

from .core import (
    Finding,
    LintResult,
    ModuleInfo,
    Rule,
    Tree,
    all_rules,
    default_src_root,
    run_lint,
)

# Importing the rule modules registers their rules.
from . import rules_coroutine  # noqa: F401
from . import rules_determinism  # noqa: F401
from . import rules_exceptions  # noqa: F401
from . import rules_observability  # noqa: F401
from . import rules_rpc  # noqa: F401
from . import rules_state  # noqa: F401
from . import rules_txn  # noqa: F401

__all__ = [
    "Finding",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "Tree",
    "all_rules",
    "default_src_root",
    "run_lint",
]
