"""The exhaustive crash matrix over the migration transaction.

The transactional protocol in :mod:`repro.migration.mechanism` claims
that a fault at *any* point of a migration leaves the cluster with
exactly one live copy of the process and nothing leaked.  This module
tests that claim literally: one **cell** per element of

    {source, target, home, FS server} x {crash, partition, flaky}
                                      x every txn-journal step boundary

(:data:`~repro.migration.TXN_STEPS` — 11 boundaries, so 132 cells).
Each cell builds a fresh three-workstation cluster, starts a defensive
victim process on its *home* host with an open scratch file, migrates
it once (home → source) so every protocol role is a distinct machine,
then arms the journal's synchronous ``on_step`` hook and migrates again
(source → target).  The instant the armed step is journaled the fault
fires: a full host crash (rebooted a few seconds later, inside the
detection window), a network partition isolating the victim machine
(healed before the ticket lease can expire), or an adversarial *flaky*
episode where every link touching the victim starts duplicating,
reordering and corrupting messages — the migration must still land
exactly once, carried by the RPC layer's checksums, request ids and
server-side dedup cache.  Right at that instant the
cell runs :meth:`~repro.faults.InvariantChecker.audit_in_flight` —
exactly one runnable copy cluster-wide, inactive lease-held copies
allowed — and after a quiesce period long enough for every lease TTL,
retry loop, recovery and repair daemon to drain, it runs the full
quiesced audit: nothing lost, nothing duplicated, no leaked tickets,
stream references or journal entries.

Determinism is part of the contract: a cell draws no randomness beyond
the cluster seed, so a fixed seed and a fixed cell list reproduce a
byte-identical trace — :func:`run_matrix` fingerprints every cell and
the golden test runs the matrix twice and compares.

``python -m repro chaos --crash-matrix`` runs the matrix from the
command line; ``--cells N`` bounds it to every ``ceil(132/N)``-th cell
for the CI smoke.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..cluster import SpriteCluster
from ..fs import OpenMode
from ..migration import TXN_STEPS, MigrationAbandoned, MigrationRefused
from ..sim import Effect, Sleep, spawn
from ..snapshot import SweepRunner
from .injector import FaultInjector
from .invariants import InvariantChecker
from .chaos import trace_fingerprint

__all__ = [
    "MATRIX_VICTIMS",
    "MATRIX_KINDS",
    "CellResult",
    "MatrixReport",
    "build_matrix_base",
    "matrix_cells",
    "run_cell",
    "run_matrix",
    "spread_cells",
]

#: Which machine the fault hits.  ``source``/``target`` are the two
#: ends of the measured migration, ``home`` is the third-party home
#: kernel keeping the shadow, ``fs`` is the file server holding the
#: victim's scratch file (and every migrated stream reference).
MATRIX_VICTIMS = ("source", "target", "home", "fs")

#: ``crash`` = full machine crash (volatile state lost, reboot after
#: :data:`REBOOT_AFTER`); ``partition`` = the machine drops off the
#: network without losing state (healed after :data:`HEAL_AFTER`);
#: ``flaky`` = every link to the machine starts duplicating, reordering
#: and corrupting messages (cleared after :data:`FLAKY_CLEAR`) — the
#: adversarial-network case the exactly-once RPC layer must absorb.
MATRIX_KINDS = ("crash", "partition", "flaky")

#: Reboot delay after a crash — shorter than the default crash-detection
#: delay (10 s), so cells exercise the "came back before the survivors
#: noticed" path as well as post-detection recovery.
REBOOT_AFTER = 4.0

#: Partition heal delay — shorter than the ticket TTL (30 s), so a
#: partitioned transfer may still resolve its lease rather than always
#: timing out.
HEAL_AFTER = 12.0

#: How long a ``flaky`` cell's adversarial links stay impaired — long
#: enough to cover the whole transfer (duplicated commits, corrupted
#: installs, reordered replies), short enough to quiesce well inside
#: the cell horizon.
FLAKY_CLEAR = 20.0

#: Per-message probabilities a ``flaky`` cell applies to every link of
#: the victim machine.
FLAKY_DUPLICATE = 0.3
FLAKY_REORDER = 0.25
FLAKY_CORRUPT = 0.1

#: Sim seconds a cell runs after arming; long enough for the fault
#: (fires within the first migration seconds), every retry/backoff
#: loop, a full lease TTL, and the recovery daemons to drain.
CELL_HORIZON = 150.0


def matrix_cells() -> List[Tuple[str, str, str]]:
    """Every (step, victim, kind) cell, in deterministic order."""
    return [
        (step, victim, kind)
        for step in TXN_STEPS
        for victim in MATRIX_VICTIMS
        for kind in MATRIX_KINDS
    ]


def spread_cells(
    cells: Sequence[Tuple[str, str, str]], max_cells: Optional[int]
) -> List[Tuple[str, str, str]]:
    """At most ``max_cells`` of ``cells``, spread evenly over the list.

    Pick *i* starts at every k-th cell, which spreads the picks over the
    steps, and then moves to the ``i``-th (cyclically) of the cells that
    share that step.  A plain stride aliases with the victim and kind
    periods of :func:`matrix_cells` (every third cell is a ``crash``
    cell); walking the step's variants instead means any twelve
    consecutive picks hold every victim x kind pair, so every victim
    and every fault kind is represented for any ``max_cells >= 12``.
    """
    cells = list(cells)
    total = len(cells)
    if max_cells is None or not 0 < max_cells < total:
        return cells
    by_step: dict = {}
    for n, cell in enumerate(cells):
        by_step.setdefault(cell[0], []).append(n)
    picked = set()
    for i in range(max_cells):
        variants = by_step[cells[(i * total) // max_cells][0]]
        picked.add(variants[i % len(variants)])
    return [cells[n] for n in sorted(picked)]


@dataclass
class CellResult:
    """One cell's verdict: what the fault did and what the audits said."""

    step: str
    victim: str
    kind: str
    #: ``migrated`` / ``refused: <why>`` / ``abandoned`` (source crashed
    #: under the driving task) / ``not-fired`` (armed step never reached).
    outcome: str = "not-fired"
    #: Sim time the fault fired (0 when it never did).
    fired_at: float = 0.0
    #: Inactive (installed-but-unactivated) copies at the fault instant.
    inactive_at_fault: int = 0
    #: Inactive copies at quiesce — must be zero (leases drained).
    inactive_at_quiesce: int = 0
    #: ``audit_in_flight`` violations at the fault instant.
    in_flight_violations: List[str] = field(default_factory=list)
    #: Full quiesced-audit violations.
    violations: List[str] = field(default_factory=list)
    #: SHA-256 of the cell's full trace.
    fingerprint: str = ""

    @property
    def clean(self) -> bool:
        return (
            not self.violations
            and not self.in_flight_violations
            and self.inactive_at_quiesce == 0
            and self.outcome != "not-fired"
        )

    def to_dict(self) -> Dict:
        return asdict(self)

    def __str__(self) -> str:
        status = "clean" if self.clean else "DIRTY"
        return (
            f"{self.step:<16} {self.victim:<6} {self.kind:<9} "
            f"{status:<5} {self.outcome}"
        )


@dataclass
class MatrixReport:
    """The whole matrix: cells, verdicts, one combined fingerprint."""

    seed: int
    cells: List[CellResult] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(cell.clean for cell in self.cells)

    @property
    def fingerprint(self) -> str:
        payload = "\n".join(
            f"{c.step}|{c.victim}|{c.kind}|{c.outcome}|{c.fingerprint}"
            for c in self.cells
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "cells": [cell.to_dict() for cell in self.cells],
            "clean": self.clean,
            "fingerprint": self.fingerprint,
        }


def _victim_program(proc, scratch: str):
    """The migrated guinea pig: computes forever, keeps a scratch file
    open (so every cell moves a stream), and shrugs off I/O failures —
    an FS outage mid-write must not kill it, only slow it down."""
    fd = yield from proc.open(scratch, OpenMode.WRITE | OpenMode.CREATE)
    while True:
        yield from proc.compute(0.25)
        try:
            yield from proc.write(fd, 512)
        except Exception:  # noqa: BLE001 - infra failure: back off, retry
            yield from proc.compute(0.5)


def build_matrix_base(seed: int = 0) -> SpriteCluster:
    """The shared per-cell prefix: three traced workstations + images.

    Built once per matrix and handed to :class:`SweepRunner`, which
    captures it and materializes the capture for every cell — a cell
    starts from an image identical to a fresh build, so cell traces
    (and the matrix fingerprint) are the same either way.
    """
    cluster = SpriteCluster(workstations=3, seed=seed, trace=True)
    cluster.standard_images()
    return cluster


def run_cell(
    step: str,
    victim: str,
    kind: str,
    seed: int = 0,
    horizon: float = CELL_HORIZON,
    cluster: Optional[SpriteCluster] = None,
) -> CellResult:
    """Run one matrix cell; see the module docstring.

    ``cluster`` is an optional pre-built (never run) base — normally a
    fork handed in by :func:`run_matrix`; when omitted the cell builds
    its own via :func:`build_matrix_base`.
    """
    if step not in TXN_STEPS:
        raise ValueError(f"unknown txn step {step!r}")
    if victim not in MATRIX_VICTIMS:
        raise ValueError(f"unknown victim {victim!r}")
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown fault kind {kind!r}")

    result = CellResult(step=step, victim=victim, kind=kind)
    if cluster is None:
        cluster = build_matrix_base(seed)
    injector = FaultInjector(cluster)
    checker = InvariantChecker(cluster, injector)
    home, source, target = cluster.hosts[0], cluster.hosts[1], cluster.hosts[2]
    server_host = cluster.server_hosts[0]
    victim_node = {
        "source": source,
        "target": target,
        "home": home,
        "fs": server_host,
    }[victim]

    pcb, _ctx = home.spawn_process(
        _victim_program, "/tmp/matrix-scratch", name="matrix-victim"
    )

    def fire_fault(txn, logged_step: str) -> None:
        if result.fired_at or logged_step != step:
            return
        result.fired_at = cluster.sim.now
        if kind == "crash":
            if victim == "fs":
                injector.crash_server(0)
            else:
                injector.crash_host(victim_node)
            spawn(cluster.sim, _recover(), name="matrix-recover", daemon=True)
        elif kind == "partition":
            injector.partition([victim_node.node.address])
            spawn(cluster.sim, _heal(), name="matrix-heal", daemon=True)
        else:  # flaky: impair every link touching the victim machine
            for peer in _peer_addresses():
                injector.set_link(
                    victim_node.node.address, peer,
                    duplicate=FLAKY_DUPLICATE, reorder=FLAKY_REORDER,
                    corrupt=FLAKY_CORRUPT,
                )
            spawn(cluster.sim, _unflake(), name="matrix-unflake", daemon=True)
        # The in-flight audit, at the crash instant itself.
        violations, inactive = checker.audit_in_flight([pcb.pid])
        result.in_flight_violations = [str(v) for v in violations]
        result.inactive_at_fault = inactive

    def _recover() -> Generator[Effect, None, None]:
        yield Sleep(REBOOT_AFTER)
        if victim == "fs":
            injector.restart_server(0)
        else:
            injector.reboot_host(victim_node)

    def _heal() -> Generator[Effect, None, None]:
        yield Sleep(HEAL_AFTER)
        injector.heal()

    def _peer_addresses() -> List[int]:
        nodes = list(cluster.hosts) + list(cluster.server_hosts)
        return [
            n.node.address for n in nodes
            if n.node.address != victim_node.node.address
        ]

    def _unflake() -> Generator[Effect, None, None]:
        yield Sleep(FLAKY_CLEAR)
        for peer in _peer_addresses():
            injector.clear_link(victim_node.node.address, peer)

    def driver() -> Generator[Effect, None, None]:
        yield Sleep(1.0)
        # Stage the roles: move the process off its home first, so the
        # measured migration has distinct source/target/home machines.
        yield from cluster.managers[home.address].migrate(
            pcb, source.address, reason="setup"
        )
        yield Sleep(0.5)
        cluster.managers[source.address].journal.on_step = fire_fault
        try:
            record = yield from cluster.managers[source.address].migrate(
                pcb, target.address, reason="matrix"
            )
            result.outcome = "migrated" if not record.refused else (
                "refused: " + str(record.detail.get("refusal", "?"))
            )
        except MigrationAbandoned:
            result.outcome = "abandoned"
        except MigrationRefused as err:
            result.outcome = f"refused: {err}"
        finally:
            cluster.managers[source.address].journal.on_step = None

    spawn(cluster.sim, driver(), name="matrix-driver", daemon=True)
    cluster.run(until=horizon)

    # Quiesce: heal anything still broken, give detection/recovery one
    # more full window, then audit.
    injector.heal_all()
    cluster.run(until=horizon + injector.detect_delay + 5.0)

    result.violations = [str(v) for v in checker.check([pcb.pid])]
    quiesce_violations, inactive = checker.audit_in_flight([pcb.pid])
    result.violations.extend(
        "at-quiesce " + str(v) for v in quiesce_violations
    )
    result.inactive_at_quiesce = inactive
    result.fingerprint = trace_fingerprint(cluster.tracer)
    return result


def run_matrix(
    seed: int = 0,
    cells: Optional[Sequence[Tuple[str, str, str]]] = None,
    max_cells: Optional[int] = None,
    horizon: float = CELL_HORIZON,
    workers: int = 1,
) -> MatrixReport:
    """Run the matrix (or a bounded, evenly-spread subset of it).

    ``max_cells`` keeps CI smoke runs cheap without losing coverage
    breadth: :func:`spread_cells` picks the subset, so all victims and
    fault kinds stay represented (from twelve cells up).

    The per-cell cluster prefix is built **once** and every cell runs
    on its own materialization of it, in one of ``workers`` forked
    processes that each take a fixed stripe of the cells
    (:class:`~repro.snapshot.SweepRunner`); results merge in cell
    order, so :attr:`MatrixReport.fingerprint` is byte-identical for
    any ``workers`` value.
    """
    if cells is None:
        cells = matrix_cells()
    cells = spread_cells(cells, max_cells)
    report = MatrixReport(seed=seed)

    def cell_fn(cluster: SpriteCluster, cell: Tuple[str, str, str]) -> CellResult:
        step, victim, kind = cell
        return run_cell(
            step, victim, kind, seed=seed, horizon=horizon, cluster=cluster
        )

    runner = SweepRunner(build_matrix_base(seed), workers=workers)
    report.cells = runner.run(cells, cell_fn)
    return report
