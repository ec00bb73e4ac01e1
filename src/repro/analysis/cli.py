"""`python -m repro lint` — CLI driver for the invariant linter.

Exit codes: 0 clean (pragma-suppressed findings count as clean), 1
findings or parse errors — for ``--graph``, an unreferenced function
that ``tools/deadcode_baseline.json`` does not keep — 2 usage errors
(unknown rule id, missing path).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from .core import Tree, all_rules, collector_paused, default_src_root, run_lint

__all__ = ["add_arguments", "cmd_lint"]

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
#: ``{"unreferenced": {"rel::qualname": "why it stays", ...}}``
KEPT_PATH = _REPO_ROOT / "tools" / "deadcode_baseline.json"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable findings on stdout",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE",
        help="run only this rule id (repeatable)",
    )
    parser.add_argument(
        "--path",
        default=None,
        metavar="SRC_ROOT",
        help="lint this source tree instead of src/repro "
        "(used by the test fixtures)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="build the whole-tree call graph and print the "
        "reachability/dead-code report instead of linting; exits 1 on "
        "an unreferenced function tools/deadcode_baseline.json does "
        "not keep (--json: a machine-readable dump, always exits 0)",
    )


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}")
            print(f"    {rule.description}")
        return 0

    src_root = pathlib.Path(args.path) if args.path else default_src_root()
    if not src_root.is_dir():
        print(f"lint: not a directory: {src_root}", file=sys.stderr)
        return 2

    if args.graph:
        return _cmd_graph(args, src_root)

    try:
        result = run_lint(src_root, rule_ids=args.rule)
    except KeyError as err:
        print(f"lint: {err.args[0]}", file=sys.stderr)
        return 2

    everything = result.parse_errors + result.findings
    if args.json:
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in everything],
                    "suppressed": result.suppressed,
                },
                indent=2,
            )
        )
    else:
        for finding in everything:
            print(
                f"{finding.location(_REPO_ROOT)}: "
                f"[{finding.rule}] {finding.message}"
            )
        if everything:
            print(f"\n{len(everything)} finding(s).")
        else:
            suffix = (
                f" ({result.suppressed} pragma-suppressed)"
                if result.suppressed else ""
            )
            print(f"lint: clean{suffix}")
    return 1 if everything else 0


def _cmd_graph(args: argparse.Namespace, src_root: pathlib.Path) -> int:
    """``lint --graph``: call-graph dump, or the dead-code gate.  The
    caller trees load here too, so the collector is paused as for a
    lint (:func:`~repro.analysis.core.collector_paused`)."""
    with collector_paused():
        graph = Tree.load(src_root).callgraph()
        if args.json:
            print(json.dumps(graph.to_dict(), indent=2))
            return 0
        # Fixture trees (--path) never consult the repository's kept list.
        kept = (
            json.loads(KEPT_PATH.read_text())["unreferenced"]
            if args.path is None else {}
        )
        print(graph.render_report(kept))
        unkept = [fn for fn in graph.unreferenced() if fn.ident not in kept]
        if unkept:
            print(
                f"\n{len(unkept)} unreferenced function(s) not kept: delete, "
                f"give a caller, or add to {KEPT_PATH.name} with a reason."
            )
        return 1 if unkept else 0
