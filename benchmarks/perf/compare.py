"""Compare two checkouts with this benchmark, as alternating pairs.

    python3 benchmarks/perf/compare.py A B --workload W --metric M [--pairs 10]

``A`` (the parent) and ``B`` (the change) are roots of two checkouts.
Both are measured by *this* directory's benchmark code, so an edit to the
benchmark in either of them cannot change the verdict.  Each pair runs
the workload once on each side with the pair's own seed, and pairs
alternate which side runs first.  The rule is the one every later claim
is judged by: ``B`` is better (or worse) only when it wins (loses) at
least nine tenths of all pairs, ties counting for neither, and the two
medians differ by more than the distance between the quartiles of ``A``'s
own runs; anything else is ``unresolved``.  Every pair is printed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent


def metric_definitions() -> Dict[str, Dict[str, str]]:
    """name -> ``{"better": ..., "trace": "0" | "1"}`` from BENCHMARK.json."""
    contract = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    known = {m["name"]: {"better": m["better"], "trace": "0"}
             for m in contract["end_to_end"]}
    known.update({m["name"]: {"better": m["better"], "trace": "1"}
                  for m in contract["per_layer"]})
    return known


def measure(root: pathlib.Path, workload: str, metric: str, trace: str,
            seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", trace],
        cwd=root, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"benchmark failed in {root} (exit {done.returncode}):\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["metrics"][metric]["value"]


def judge(parent: List[float], change: List[float], better: str) -> str:
    """The guide's rule; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
    quartiles = statistics.quantiles(parent, n=4)
    spread = quartiles[2] - quartiles[0]
    moved = abs(statistics.median(change) - statistics.median(parent)) > spread
    needed = 0.9 * len(parent)
    if wins >= needed and moved:
        return "B better"
    if losses >= needed and moved:
        return "B worse"
    return "unresolved"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path, help="checkout A")
    parser.add_argument("change", type=pathlib.Path, help="checkout B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100,
                        help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    known = metric_definitions()
    if args.metric not in known:
        parser.error(f"unknown metric {args.metric!r}")
    if args.pairs < 2:
        parser.error("need at least two pairs")
    better, trace = known[args.metric]["better"], known[args.metric]["trace"]

    values: Dict[str, List[float]] = {"A": [], "B": []}
    roots = {"A": args.parent.resolve(), "B": args.change.resolve()}
    print(f"{args.workload} {args.metric} ({better} is better), {args.pairs} pairs")
    for pair in range(args.pairs):
        order = ("A", "B") if pair % 2 == 0 else ("B", "A")
        for side in order:
            values[side].append(measure(roots[side], args.workload, args.metric,
                                        trace, args.seed + pair))
        a, b = values["A"][-1], values["B"][-1]
        print(f"  pair {pair:2d} seed {args.seed + pair} first {order[0]}: "
              f"A {a:.6g}  B {b:.6g}  B/A {b / a if a else float('nan'):.4f}")
    for side in ("A", "B"):
        quartiles = statistics.quantiles(values[side], n=4)
        print(f"  {side}: median {statistics.median(values[side]):.6g}  "
              f"quartiles {quartiles[0]:.6g} .. {quartiles[2]:.6g}")
    print(f"verdict: {judge(values['A'], values['B'], better)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
