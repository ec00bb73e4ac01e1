"""Link-state fabric: partitions, per-link loss, delay — and adversity.

The LAN's only failure mode used to be the binary ``node.up`` flag.
:class:`LinkFabric` adds the network failures the thesis's protocols
must survive — partitions between host groups, probabilistic packet
loss, latency spikes, and the adversarial trio (duplication,
reordering, payload corruption) on individual links — as state
*beside* the LAN: :class:`~repro.net.Lan` consults ``lan.fabric`` with
one ``is not None`` test per message, so a fault-free run pays nothing.

Semantics, by traffic class:

* **unicast messages** (``Lan.send``): a partition raises
  :class:`~repro.net.NetworkPartitionedError` before any wire time is
  spent; a loss draw consumes the wire time but delivers nothing (the
  caller discovers it by timeout); per-link delay is added to the
  propagation latency.  A *duplicate* draw delivers a second copy of
  the message after a short extra lag, a *reorder* draw adds a random
  skew so the message can overtake later traffic, and a *corrupt* draw
  flags the delivered copy so the receiver's checksum check discards
  it (``RpcPort`` counts and drops flagged requests).
* **bulk transfers** (``Lan.transfer``): partitions raise; per-link
  delay applies.  Loss is not drawn per transfer — bulk data rides a
  retransmitting transport, so model its loss as a delay spike instead.
* **broadcast** (``Lan.broadcast``): receivers behind a partition or a
  per-receiver loss draw simply miss the message.

All randomness comes from a seeded :class:`~repro.sim.random.Rng`
handed in by the caller (the injector passes
``cluster.rng.stream("faults.net")``), so a fixed seed reproduces the exact same drop pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..net.lan import NetworkPartitionedError
from ..sim import Tracer
from ..sim.random import Rng

__all__ = ["LinkFabric", "LinkState", "UnicastVerdict"]


@dataclass
class LinkState:
    """Per-link impairment: loss/duplication/reordering/corruption
    probabilities and extra one-way delay."""

    drop: float = 0.0
    delay: float = 0.0
    #: Probability a delivered message is delivered twice.
    duplicate: float = 0.0
    #: Probability a delivered message picks up a random extra skew in
    #: ``(0, reorder_window]`` so it can overtake later traffic.
    reorder: float = 0.0
    #: Probability a delivered copy arrives flagged corrupt (the
    #: receiver's checksum check discards it).
    corrupt: float = 0.0
    #: Upper bound of the reorder skew / duplicate lag draws (seconds).
    reorder_window: float = 0.002

    @property
    def adversarial(self) -> bool:
        return (self.duplicate > 0.0 or self.reorder > 0.0
                or self.corrupt > 0.0)


@dataclass
class UnicastVerdict:
    """Full fabric verdict for one unicast message (``Lan.send``)."""

    deliver: bool = True
    delay: float = 0.0
    #: Extra copies to deliver (0 or 1), each lagging ``dup_delay``
    #: behind the original; ``dup_corrupt`` flags the copy.
    duplicates: int = 0
    dup_delay: float = 0.0
    dup_corrupt: bool = False
    #: The original delivered copy arrives corrupted.
    corrupt: bool = False


class LinkFabric:
    """Mutable connectivity state consulted by the LAN on every message."""

    def __init__(self, rng=None, tracer: Optional[Tracer] = None):
        if rng is None:
            rng = Rng(0)
        self.rng = rng
        self.tracer = tracer if tracer is not None else Tracer()
        #: address -> partition group id; ``None`` means fully connected.
        #: Addresses not named in any group share one residual group.
        self._groups: Optional[Dict[int, int]] = None
        self._links: Dict[Tuple[int, int], LinkState] = {}
        #: Counters for the invariant checker and reports.
        self.blocked = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.corrupted = 0

    # ------------------------------------------------------------------
    # Configuration (driven by the injector)
    # ------------------------------------------------------------------
    @staticmethod
    def _key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Split the network: only hosts in the same group can talk.

        Hosts not named in any group fall into one shared residual
        group (so ``partition([[a]])`` isolates ``a`` from everyone
        else, servers included).
        """
        mapping: Dict[int, int] = {}
        for index, group in enumerate(groups):
            for address in group:
                mapping[address] = index
        self._groups = mapping

    def heal(self) -> None:
        """Remove any partition; per-link impairments are unaffected."""
        self._groups = None

    def set_link(
        self,
        a: int,
        b: int,
        drop: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        corrupt: float = 0.0,
        reorder_window: float = 0.002,
    ) -> None:
        """Impair the (undirected) link between ``a`` and ``b``."""
        if not 0.0 <= drop < 1.0:
            raise ValueError(f"drop probability must be in [0, 1): {drop}")
        if delay < 0.0:
            raise ValueError(f"negative link delay: {delay}")
        for name, prob in (("duplicate", duplicate), ("reorder", reorder),
                           ("corrupt", corrupt)):
            if not 0.0 <= prob < 1.0:
                raise ValueError(
                    f"{name} probability must be in [0, 1): {prob}"
                )
        if reorder_window <= 0.0:
            raise ValueError(f"reorder window must be positive: {reorder_window}")
        self._links[self._key(a, b)] = LinkState(
            drop=drop, delay=delay, duplicate=duplicate, reorder=reorder,
            corrupt=corrupt, reorder_window=reorder_window,
        )

    def clear_link(self, a: int, b: int) -> None:
        self._links.pop(self._key(a, b), None)

    def clear_links(self) -> None:
        self._links.clear()

    def connected(self, a: int, b: int) -> bool:
        groups = self._groups
        if groups is None:
            return True
        return groups.get(a, -1) == groups.get(b, -1)

    # ------------------------------------------------------------------
    # Queries from the LAN hot paths
    # ------------------------------------------------------------------
    def unicast_effects(self, src: int, dst: int) -> Optional[UnicastVerdict]:
        """Full verdict for one message; ``None`` means clean delivery.

        Raises :class:`NetworkPartitionedError` when no path exists.
        Returning ``None`` on the no-impairment path keeps the per-
        message cost of an installed-but-idle fabric to a dict probe.
        """
        if not self.connected(src, dst):
            self.blocked += 1
            raise NetworkPartitionedError(
                f"no path from {src} to {dst} (network partitioned)"
            )
        link = self._links.get((src, dst) if src <= dst else (dst, src))
        if link is None:
            return None
        if link.drop > 0.0 and self.rng.random() < link.drop:
            self.dropped += 1
            return UnicastVerdict(deliver=False, delay=link.delay)
        verdict = UnicastVerdict(deliver=True, delay=link.delay)
        # Guard every adversarial draw on its probability so a plain
        # loss/delay link consumes exactly the pre-existing draw
        # sequence (golden traces stay byte-identical).
        if link.reorder > 0.0 and self.rng.random() < link.reorder:
            self.reordered += 1
            verdict.delay += self.rng.uniform(0.0, link.reorder_window)
        if link.corrupt > 0.0 and self.rng.random() < link.corrupt:
            self.corrupted += 1
            verdict.corrupt = True
        if link.duplicate > 0.0 and self.rng.random() < link.duplicate:
            self.duplicated += 1
            verdict.duplicates = 1
            verdict.dup_delay = self.rng.uniform(0.0, link.reorder_window)
            if link.corrupt > 0.0 and self.rng.random() < link.corrupt:
                self.corrupted += 1
                verdict.dup_corrupt = True
        return verdict

    def bulk(self, src: int, dst: int) -> float:
        """Extra delay for a bulk transfer; raises when partitioned."""
        if not self.connected(src, dst):
            self.blocked += 1
            raise NetworkPartitionedError(
                f"no path from {src} to {dst} (network partitioned)"
            )
        link = self._links.get((src, dst) if src <= dst else (dst, src))
        return link.delay if link is not None else 0.0

    def multicast(self, src: int, dst: int) -> bool:
        """Whether one broadcast receiver gets its copy."""
        if not self.connected(src, dst):
            self.blocked += 1
            return False
        link = self._links.get((src, dst) if src <= dst else (dst, src))
        if link is not None and link.drop > 0.0 and self.rng.random() < link.drop:
            self.dropped += 1
            return False
        return True
