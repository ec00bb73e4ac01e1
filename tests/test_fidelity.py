"""The paper's verdicts, checked against the committed archives.

EXPERIMENTS.md compares each paper claim with a measured figure and
gives a verdict; ``test_docs_consistency.py`` checks that the figures
are the archives' own.  These check the verdicts: each claim becomes a
band or a shape over its archive's numbers, so a change that moves a
hash may not move a verdict.  CI regenerates every archive and fails on
any difference, so the bands hold for the code as well as for the
files.  Rows so far: E1, E2 and E5, the experiments on the
``migration_ring`` and ``pmake_build`` paths.
"""

import re

from .helpers import REPO_ROOT

RESULTS = REPO_ROOT / "benchmarks" / "results"


def _archive(name):
    return (RESULTS / f"{name}.txt").read_text()


def _number(text):
    return float(text.replace(",", ""))


def _row(text, label):
    """The numeric cells of the table row that starts with ``label``."""
    line = re.search(rf"^{re.escape(label)}\s+(.*)$", text, re.MULTILINE)
    assert line is not None, f"no row {label!r}"
    return [_number(cell) for cell in re.findall(r"\d[\d,]*(?:\.\d+)?", line.group(1))]


def _curve(text, series):
    """``{x: y}`` of one ``[series]`` of an archived chart."""
    block = text.split(f"[{series}]", 1)[1].split("[", 1)[0]
    return {int(x): _number(y)
            for x, y in re.findall(r"^\s+(\d+)\s+([\d.]+)", block, re.MULTILINE)}


def test_e1_migration_costs_match_the_paper():
    text = _archive("E1_migration_breakdown")
    trivial, = _row(text, "trivial process (total)")
    _total, per_file = _row(text, "8 open files (total)")[-2:]
    _total, file_mb = _row(text, "1 MB dirty file data (total)")[-2:]
    assert 76 / 2 <= trivial <= 76 * 2             # same order as 76 ms
    assert abs(per_file - 9.4) <= 0.25 * 9.4       # about 9.4 ms per file
    assert file_mb >= 10 * per_file                # the flush dominates


def test_e2_policy_relationships_hold():
    text = _archive("E2_vm_policies")
    policies = {name: _row(text, name) for name in
                ("copy-on-reference", "flush-to-server", "full-copy", "pre-copy")}
    residual = dict(re.findall(r"^([a-z-]+) .* (yes|no)\s*$", text, re.MULTILINE))
    assert residual == {"copy-on-reference": "yes", "flush-to-server": "no",
                        "full-copy": "no", "pre-copy": "no"}
    full = _curve(text, "full-copy")
    flush = _curve(text, "flush-to-server")
    # Monolithic copy: freeze proportional to the image.
    assert 6 <= full[8] / full[1] <= 9
    # Pre-copy: short freeze, extra bytes, several rounds.
    freeze, total, rounds = policies["pre-copy"][:3]
    assert freeze < 0.05 * full[8] and total > 8.0 and rounds > 1
    # Copy-on-reference: near-instant, but the source stays needed.
    assert policies["copy-on-reference"][0] < 0.05 * full[8]
    # Flush: pays for the dirty quarter only, linear in it.
    assert abs(flush[8] - full[2]) <= 0.1 * full[2]
    assert abs((flush[8] - flush[4]) - 2 * (flush[4] - flush[2])) <= 0.1 * flush[8]


def test_e5_pmake_speedup_rises_then_saturates():
    text = _archive("E5_pmake_speedup")
    rows = {int(jobs): _row(text, jobs) for jobs in ("1", "2", "4", "8", "12")}
    speedup = {jobs: row[1] for jobs, row in rows.items()}
    server_cpu = [rows[jobs][-1] for jobs in sorted(rows)]
    assert speedup[1] < speedup[2] < speedup[4] < speedup[8]
    assert 3.5 <= max(speedup.values()) <= 6.5     # about 5x, server-bound
    assert speedup[12] <= speedup[8]               # saturated by 12 jobs
    assert server_cpu == sorted(server_cpu)        # the server loads up
