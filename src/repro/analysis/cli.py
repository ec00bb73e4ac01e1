"""`python -m repro lint` — CLI driver for the invariant linter.

Exit codes: 0 clean (baselined findings count as clean), 1 findings or
parse errors, 2 usage errors (unknown rule id, missing path).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional

from .baseline import Baseline, DEFAULT_BASELINE_PATH
from .core import all_rules, default_src_root, run_lint

__all__ = ["add_arguments", "cmd_lint"]

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


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
        "--baseline",
        choices=["update"],
        default=None,
        help="'update': rewrite tools/lint_baseline.json to grandfather "
        "all current findings, then exit 0",
    )
    parser.add_argument(
        "--path",
        default=None,
        metavar="SRC_ROOT",
        help="lint this source tree instead of src/repro "
        "(used by the test fixtures)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the checked-in baseline file",
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
        "reachability/dead-code report instead of linting "
        "(--json for a machine-readable dump, --dot for GraphViz)",
    )
    parser.add_argument(
        "--dot",
        action="store_true",
        help="with --graph: emit GraphViz DOT on stdout",
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

    baseline: Optional[Baseline] = None
    # Fixture trees (--path) never consult the repo baseline.
    use_baseline = args.path is None and not args.no_baseline
    if use_baseline and args.baseline != "update":
        baseline = Baseline.load(DEFAULT_BASELINE_PATH)

    try:
        result = run_lint(src_root, rule_ids=args.rule, baseline=baseline)
    except KeyError as err:
        print(f"lint: {err.args[0]}", file=sys.stderr)
        return 2

    if args.baseline == "update":
        new_baseline = Baseline.from_findings(result.findings)
        new_baseline.save(DEFAULT_BASELINE_PATH)
        print(
            f"baseline updated: {len(new_baseline)} finding(s) "
            f"grandfathered in {DEFAULT_BASELINE_PATH}"
        )
        return 0

    everything = result.parse_errors + result.findings
    if args.json:
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in everything],
                    "suppressed": result.suppressed,
                    "baselined": result.baselined,
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
            extras = []
            if result.suppressed:
                extras.append(f"{result.suppressed} pragma-suppressed")
            if result.baselined:
                extras.append(f"{result.baselined} baselined")
            suffix = f" ({', '.join(extras)})" if extras else ""
            print(f"lint: clean{suffix}")
    return 1 if everything else 0


def _cmd_graph(args: argparse.Namespace, src_root: pathlib.Path) -> int:
    """``lint --graph``: call-graph dump / dead-code report."""
    from .core import Tree

    tree = Tree.load(src_root)
    graph = tree.callgraph()
    if args.dot:
        sys.stdout.write(graph.to_dot())
    elif args.json:
        print(json.dumps(graph.to_dict(), indent=2))
    else:
        print(graph.render_report())
    return 0
