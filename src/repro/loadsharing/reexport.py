"""Re-exporting evicted processes (thesis ch. 8).

Eviction sends foreign processes *home*; home may be the busiest place
they could be.  The thesis notes that the load-sharing layer (pmake, or
a daemon acting for it) can immediately ask for a fresh idle host and
push the work back out.  :class:`ReExporter` wires that behaviour into
every eviction daemon on a cluster: when guests land at home, a task on
the home host requests replacement hosts and migrates them out again.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from ..cluster import SpriteCluster
from ..migration import MigrationRecord, MigrationRefused
from ..sim import Effect, Sleep, spawn

__all__ = ["ReExporter"]


#: Small pause before re-exporting, letting the eviction settle.
REEXPORT_DELAY = 0.5


class ReExporter:
    """Pushes evicted processes back onto idle hosts."""

    def __init__(self, cluster: SpriteCluster, service):
        self.cluster = cluster
        self.service = service
        self.reexported = 0
        self.failed = 0
        for evictor in cluster.evictors:
            evictor.on_evicted = self._on_evicted

    # ------------------------------------------------------------------
    def _on_evicted(self, records: List[MigrationRecord]) -> None:
        by_home: Dict[int, List[MigrationRecord]] = {}
        for record in records:
            by_home.setdefault(record.target, []).append(record)
        # sorted(): spawn order must not depend on dict insertion order,
        # which here follows eviction completion order.
        for home_address, home_records in sorted(by_home.items()):
            home = self.cluster.host_by_address(home_address)
            spawn(
                self.cluster.sim,
                self._reexport(home, home_records),
                name=f"reexport:{home.name}",
                daemon=True,
            )

    def _reexport(
        self, home, records: List[MigrationRecord]
    ) -> Generator[Effect, None, None]:
        yield Sleep(REEXPORT_DELAY)
        selector = self.service.selector_for(home)
        manager = self.cluster.manager_of(home)
        evicted_from = {record.source for record in records}
        for record in records:
            pcb = home.kernel.procs.get(record.pid)
            if pcb is None or not pcb.alive or pcb.current != home.address:
                continue  # exited or moved meanwhile
            granted = yield from selector.request(1, exclude=sorted(evicted_from))
            if not granted:
                continue  # cluster busy: the process stays home
            target = granted[0]
            try:
                yield from manager.migrate(pcb, target, reason="re-export")
                self.reexported += 1
            except MigrationRefused:
                self.failed += 1
                yield from selector.release(granted)
