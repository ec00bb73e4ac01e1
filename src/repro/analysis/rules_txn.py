"""Transaction hygiene rules for the migration journal (PR 4).

``migration/txn.py`` defines the canonical step ladder ``TXN_STEPS``;
the crash-matrix harness fires a fault at every step boundary, so a
step string that isn't in the ladder silently escapes the matrix.  The
undo log is symmetric state: every ``push_undo(kind, ...)`` must have a
replay arm comparing ``entry.kind == kind`` somewhere in ``migration/``
and vice versa, or rollback silently drops (or dead-codes) an entry.

Both rules read their ground truth from the AST of
``migration/txn.py`` / ``migration/*.py`` in the linted tree, so they
are inert on fixture trees that don't model transactions.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .core import (
    Finding,
    ModuleInfo,
    Rule,
    Tree,
    literal_str,
    name_tail,
    register_rule,
)

_TXN_MODULE = "migration/txn.py"

#: call shapes that take a journal-step name: ``txn.step("frozen")``,
#: ``txn.did("frozen")``, and the mechanism's write-ahead helper
#: ``self._journal_step(txn, "frozen", ...)`` (step at index 1).
_STEP_METHODS = {"step": 0, "did": 0, "_journal_step": 1}


def _txn_steps(tree: Tree) -> Optional[Set[str]]:
    """Extract the TXN_STEPS tuple from migration/txn.py, if present."""
    module = tree.module(_TXN_MODULE)
    if module is None or module.tree is None:
        return None
    for node in module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        targets = [
            target.id
            for target in node.targets
            if isinstance(target, ast.Name)
        ]
        if "TXN_STEPS" not in targets:
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            steps = {
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            }
            return steps
    return None


def _step_sites(tree: Tree) -> Iterable[Tuple[ModuleInfo, ast.Call, str]]:
    for module in tree.parsed():
        if not module.rel.startswith("migration/"):
            continue
        for node in module.nodes_of(ast.Call):
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            index = _STEP_METHODS.get(func.attr)
            if index is None:
                continue
            if func.attr in ("step", "did"):
                if name_tail(func.value) not in ("txn", "transaction"):
                    continue
            if index < len(node.args):
                name = literal_str(node.args[index])
                if name is not None:
                    yield module, node, name


class UnknownStepRule(Rule):
    id = "txn-unknown-step"
    description = (
        "Every journaled step literal must appear in TXN_STEPS so the "
        "crash matrix covers its boundary."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        steps = _txn_steps(tree)
        if steps is None:
            return
        for module, node, name in _step_sites(tree):
            if name not in steps:
                yield module.finding(
                    self.id,
                    node,
                    f'step "{name}" is not in migration/txn.py TXN_STEPS; '
                    "the crash matrix will never fault at this boundary",
                )


class UndoCoverageRule(Rule):
    id = "txn-undo-coverage"
    description = (
        "Undo-log kinds must be pushed and replayed symmetrically: every "
        "push_undo(kind) needs an `entry.kind == kind` arm and vice versa."
    )

    def check(self, tree: Tree) -> Iterable[Finding]:
        pushed: Dict[str, List[Tuple[ModuleInfo, ast.Call]]] = {}
        replayed: Dict[str, List[Tuple[ModuleInfo, ast.Compare]]] = {}
        for module in tree.parsed():
            if not module.rel.startswith("migration/"):
                continue
            for node in module.nodes_of(ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "push_undo"
                    and node.args
                ):
                    kind = literal_str(node.args[0])
                    if kind is not None:
                        pushed.setdefault(kind, []).append((module, node))
            for node in module.nodes_of(ast.Compare):
                kind = _kind_comparison(node)
                if kind is not None:
                    replayed.setdefault(kind, []).append((module, node))
        for kind, sites in sorted(pushed.items()):
            if kind in replayed:
                continue
            for module, node in sites:
                yield module.finding(
                    self.id,
                    node,
                    f'undo kind "{kind}" is pushed but no replay arm '
                    'compares `.kind == "' + kind + '"` — rollback would '
                    "silently drop it",
                )
        for kind, sites in sorted(replayed.items()):
            if kind in pushed:
                continue
            for module, node in sites:
                yield module.finding(
                    self.id,
                    node,
                    f'replay arm for undo kind "{kind}" matches nothing '
                    "any do-step pushes — dead rollback code",
                )


def _kind_comparison(node: ast.Compare) -> Optional[str]:
    """Match ``<expr>.kind == "literal"`` (either operand order)."""
    if len(node.ops) != 1 or not isinstance(node.ops[0], (ast.Eq, ast.In)):
        return None
    left, right = node.left, node.comparators[0]
    for attr_side, const_side in ((left, right), (right, left)):
        if (
            isinstance(attr_side, ast.Attribute)
            and attr_side.attr == "kind"
            and isinstance(const_side, ast.Constant)
            and isinstance(const_side.value, str)
        ):
            return const_side.value
    return None


register_rule(UnknownStepRule())
register_rule(UndoCoverageRule())
