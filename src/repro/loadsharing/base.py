"""Host-selection interface shared by the four architectures (ch. 6).

A *selector client* lives on one host and answers "give me N idle
hosts" / "I'm done with this host".  The thesis compares four designs —
shared file, central server, probabilistic-distributed, multicast —
against performance, scalability, fault tolerance, and the quality of
their decisions; benchmark E7 reproduces that comparison with these
implementations.

Every implementation records the same metrics so the comparison is
apples-to-apples: messages on the wire per request, request latency,
and *conflicts* (a selected host that refused or was already taken —
the shared-state-staleness failure mode the thesis discusses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Iterable, List, Sequence

from ..kernel import Host
from ..obs.spans import SELECT_REQUEST
from ..sim import Effect

__all__ = ["AcceptPolicy", "SelectorMetrics", "HostSelector", "install_accept_hooks"]


@dataclass
class SelectorMetrics:
    requests: int = 0
    granted: int = 0
    denied: int = 0
    releases: int = 0
    conflicts: int = 0
    #: Per-request wall-clock latency samples (seconds).
    latencies: List[float] = field(default_factory=list)

    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0


class HostSelector:
    """One host's view of the host-selection facility."""

    name = "abstract"

    def __init__(self, host: Host):
        self.host = host
        self.metrics = SelectorMetrics()

    def request(
        self, n: int = 1, exclude: Sequence[int] = ()
    ) -> Generator[Effect, None, List[int]]:
        """Ask for up to ``n`` idle hosts; returns their addresses
        (possibly fewer, possibly none)."""
        raise NotImplementedError

    def release(self, addresses: Iterable[int]) -> Generator[Effect, None, None]:
        """Give hosts back when the remote work is done."""
        raise NotImplementedError

    # Convenience used by every implementation.
    def _timed_request_start(self) -> float:
        self.metrics.requests += 1
        return self.host.sim.now

    def _timed_request_end(self, started: float, granted: List[int]) -> List[int]:
        self.metrics.latencies.append(self.host.sim.now - started)
        if granted:
            self.metrics.granted += len(granted)
        else:
            self.metrics.denied += 1
        tracer = self.host.tracer
        if tracer.spans_enabled:
            tracer.record_span(
                SELECT_REQUEST,
                f"select:{self.host.name}",
                started,
                self.host.sim.now,
                selector=self.name,
                granted=len(granted),
            )
        return granted


#: Concurrent foreign guests a workstation accepts.
MAX_FOREIGN = 1


def install_accept_hooks(cluster) -> None:
    """Give every workstation the thesis's acceptance policy.

    A host accepts foreign work while its owner is away and it has room
    for another guest; acceptance bumps its load bias so a burst of
    selections cannot flood it before the load average catches up
    ([BSW89]-style flood prevention).  The *load* criterion gates
    selection (is the host offered at all?), not acceptance — a client
    that was granted a host keeps using it for successive jobs, like
    Amoeba's reserved processor pool, until the owner returns.
    :data:`MAX_FOREIGN` caps concurrent guests.
    """
    for host in cluster.hosts:
        manager = cluster.manager_of(host)
        manager.accept_hook = AcceptPolicy(host, manager)


class AcceptPolicy:
    """The thesis's acceptance criterion, installed as a migration
    manager's ``accept_hook``."""

    __slots__ = ("host", "manager")

    def __init__(self, host, manager):
        self.host = host
        self.manager = manager

    def __call__(self, args) -> bool:
        host, manager = self.host, self.manager
        if host.input_idle_seconds() < host.params.idle_input_threshold:
            return False   # the owner is (or just was) at the console
        # Count guests already here AND accepted-but-in-flight: this is
        # the flood-prevention window — concurrent requesters racing on
        # the same stale snapshot must not all land here ([BSW89]).
        committed = (
            len(host.kernel.foreign_pcbs()) + manager.leases.pending_arrivals
        )
        if committed >= MAX_FOREIGN:
            return False
        manager.leases.note_incoming()
        host.loadavg.anticipate_arrivals(1)
        return True
