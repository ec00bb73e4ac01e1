"""The migration-transaction crash matrix: exhaustiveness, cleanliness,
byte-identical determinism."""

import pytest

from repro.faults import (
    MATRIX_KINDS,
    MATRIX_VICTIMS,
    matrix_cells,
    run_cell,
    run_matrix,
)
from repro.migration import TXN_STEPS

from . import golden_migration


def test_matrix_enumerates_every_cell_exactly_once():
    cells = matrix_cells()
    assert len(cells) == len(TXN_STEPS) * len(MATRIX_VICTIMS) * len(MATRIX_KINDS)
    assert len(cells) == 132
    assert len(set(cells)) == len(cells)


def test_full_crash_matrix_is_clean():
    """Every cell: fault fired at its armed step, the in-flight audit
    held at that instant, and the quiesced cluster leaked nothing."""
    report = run_matrix(seed=0)
    assert len(report.cells) == 132
    golden_migration.assert_cells_match(report)
    assert report.fingerprint == golden_migration.load()["matrix"]["fingerprint"]
    dirty = [
        f"{cell}: {cell.in_flight_violations + cell.violations}"
        for cell in report.cells
        if not cell.clean
    ]
    assert report.clean, "\n".join(dirty)
    # Each fault actually fired at its boundary (no vacuous cells).
    assert all(cell.fired_at > 0 for cell in report.cells)
    # The protocol really does hold inactive lease-held copies at the
    # target mid-transfer... and every one of them drained by quiesce.
    assert any(cell.inactive_at_fault > 0 for cell in report.cells)
    assert all(cell.inactive_at_quiesce == 0 for cell in report.cells)
    # Post-commit faults must not undo the migration; pre-install source
    # crashes must abandon it.  Spot-check the extremes of the ordering.
    by_key = {(c.step, c.victim, c.kind): c for c in report.cells}
    assert by_key[("closed", "source", "crash")].outcome == "abandoned"
    assert by_key[("negotiated", "source", "crash")].outcome == "abandoned"
    assert by_key[("home_updated", "target", "partition")].outcome == "migrated"
    # A flaky network (duplication, reordering, corruption) slows the
    # transfer but never loses or doubles it: exactly-once RPC absorbs it.
    assert by_key[("negotiated", "target", "flaky")].outcome == "migrated"
    assert by_key[("committed", "source", "flaky")].outcome == "migrated"


def test_matrix_beyond_seed_0_matches_its_pin():
    """Seeds 0-79 are pinned whole (CI sweeps them all); tier-1 runs
    seed 21, where seven cells waited for ever before calls probed."""
    report = run_matrix(seed=21, workers=2)
    assert report.fingerprint == golden_migration.load()["matrix_seeds"]["21"]
    assert report.clean


def test_matrix_fixed_seed_is_byte_identical():
    """The golden determinism contract: same seed + same cells => the
    per-cell traces (and so the matrix fingerprint) are byte-identical."""
    first = run_matrix(seed=3, max_cells=12)
    second = run_matrix(seed=3, max_cells=12)
    assert len(first.cells) == 12
    assert first.fingerprint == second.fingerprint
    assert [c.to_dict() for c in first.cells] == [
        c.to_dict() for c in second.cells
    ]


@pytest.mark.parametrize("max_cells", [12, 16, 22, 44])
def test_matrix_subset_keeps_coverage_breadth(max_cells):
    """A bounded run spreads over the full ordering with every victim
    and every fault kind represented — also at 22 and 44 cells, where a
    plain stride (6, 3) aliases with the victim and kind periods.  Run
    in forked workers, each cell still has its pinned outcome and trace."""
    report = run_matrix(seed=0, max_cells=max_cells, workers=2)
    assert len(report.cells) == max_cells
    golden_migration.assert_cells_match(report)
    assert {c.victim for c in report.cells} == set(MATRIX_VICTIMS)
    assert {c.kind for c in report.cells} == set(MATRIX_KINDS)
    assert {c.step for c in report.cells} == set(TXN_STEPS)
    assert report.clean


def test_single_cell_reports_inactive_copy_under_lease():
    """Crashing the source right after mig.install leaves the target's
    inactive copy under its lease: counted at the fault instant, reaped
    (not activated) by quiesce."""
    cell = run_cell("shipped", "source", "crash")
    assert cell.clean
    assert cell.inactive_at_fault == 1
    assert cell.inactive_at_quiesce == 0
    assert cell.outcome == "abandoned"


#: (step, victim, seed) of the 63 flaky cells of docs/faults.md's
#: table, on seeds 0-79, whose write-back ``fs.write`` the link's
#: corruption draw hits, request and duplicate alike.
_EXPORT_STEPS = [(step, victim)
                 for victim in ("fs", "source")
                 for step in ("negotiated", "frozen", "vm_sent", "state_packed")
                 if (step, victim) != ("negotiated", "source")]
CORRUPTED_WRITEBACK_CELLS = [
    (step, victim, seed)
    for seed in (21, 36, 40, 58, 59, 74, 76, 79)
    for step, victim in _EXPORT_STEPS
] + [("negotiated", "source", seed) for seed in (3, 12, 15, 29, 34, 37, 76)]


@pytest.mark.parametrize("step, victim, seed", CORRUPTED_WRITEBACK_CELLS)
def test_flaky_cell_closes_its_journal_txn(step, victim, seed):
    """Exporting the victim's stream starts with a write-back of its
    scratch file; on these cluster seeds the corruption draw of a flaky
    link (one packet in ten) hits that request and the link's duplicate
    of it, whether the link is the file server's or the source's own.
    The server drops both; the caller's probe brings the request back,
    so the migration finishes and its transaction closes."""
    cell = run_cell(step, victim, "flaky", seed=seed)
    assert cell.outcome != "not-fired"
    assert not [v for v in cell.violations if "leaked-journal-txn" in v]
    assert cell.clean, cell.violations


def test_cell_result_json_shape_is_pinned():
    """``--crash-matrix --json`` is what CI reads the pinned fingerprint
    from, so its shape is part of the contract: the dataclass's fields,
    in declaration order, nothing else."""
    cell = run_cell("frozen", "target", "crash", seed=0)
    assert list(cell.to_dict().items()) == [
        ("step", "frozen"),
        ("victim", "target"),
        ("kind", "crash"),
        ("outcome",
         "refused: target 4 failed during transfer of pid 2000001: "
         "mig.install on host 4 unreachable after 3 attempt(s): host "
         "ws2 is down"),
        ("fired_at", 1.5988268292682937),
        ("inactive_at_fault", 0),
        ("inactive_at_quiesce", 0),
        ("in_flight_violations", []),
        ("violations", []),
        ("fingerprint",
         "a802ab44890fd564b720a6abe8e38c82bb10bf2c50c9eed53b5bdc4ae6e3039c"),
    ]
