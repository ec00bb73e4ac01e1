"""Cluster-wide load-sharing installation.

One call wires a :class:`~repro.cluster.SpriteCluster` with a chosen
host-selection architecture, acceptance policies with flood prevention,
and the per-host daemons the architecture needs.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cluster import SpriteCluster
from ..kernel import Host
from .base import HostSelector, install_accept_hooks
from .migd import AvailabilityNotifier, CentralizedSelector, MigdServer
from .mig import MigClient
from .selectors import (
    LOAD_BOARD_PATH,
    MulticastSelector,
    ProbabilisticSelector,
    SharedFileBoard,
    SharedFileSelector,
)

__all__ = ["LoadSharingService", "ARCHITECTURES"]

ARCHITECTURES = ("centralized", "shared-file", "probabilistic", "multicast")


class LoadSharingService:
    """Everything needed for automatic load sharing on one cluster."""

    def __init__(
        self,
        cluster: SpriteCluster,
        architecture: str = "centralized",
    ):
        if architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {architecture!r}; one of {ARCHITECTURES}"
            )
        self.cluster = cluster
        self.architecture = architecture
        self.selectors: Dict[int, HostSelector] = {}
        self.migd: Optional[MigdServer] = None
        install_accept_hooks(cluster)

        if architecture == "centralized":
            self.migd = MigdServer(cluster.hosts[0])
            self.migd.start()
            for host in cluster.hosts:
                AvailabilityNotifier(host)  # lives on in its own task
                self.selectors[host.address] = CentralizedSelector(host)
        elif architecture == "shared-file":
            cluster.add_file(LOAD_BOARD_PATH, payload={})
            for host in cluster.hosts:
                SharedFileBoard(host)  # lives on in its own task
                self.selectors[host.address] = SharedFileSelector(host)
        elif architecture == "probabilistic":
            addresses = [host.address for host in cluster.hosts]
            for host in cluster.hosts:
                selector = ProbabilisticSelector(host)
                selector.peers = [a for a in addresses if a != host.address]
                self.selectors[host.address] = selector
        else:  # multicast
            for host in cluster.hosts:
                self.selectors[host.address] = MulticastSelector(host)

    # ------------------------------------------------------------------
    def selector_for(self, host: Host) -> HostSelector:
        return self.selectors[host.address]

    def mig_client(self, host: Host) -> MigClient:
        return MigClient(self.selector_for(host))

    # ------------------------------------------------------------------
    # Facility-wide metrics (benchmark E7 reads these)
    # ------------------------------------------------------------------
    def total_conflicts(self) -> int:
        return sum(s.metrics.conflicts for s in self.selectors.values())
