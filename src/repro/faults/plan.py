"""Fault plans: what breaks, when.

A :class:`FaultPlan` is an ordered script of :class:`FaultAction`
entries over *simulated* time.  Plans are plain data — building one has
no side effects; a :class:`~repro.faults.FaultInjector` executes it
against a cluster.  Plans can be written by hand (the builder methods
chain) or generated reproducibly from the cluster's seeded RNG streams
with :meth:`FaultPlan.random`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

__all__ = ["FaultAction", "FaultPlan", "FAULT_KINDS"]

#: Every action kind an injector knows how to apply.
FAULT_KINDS = (
    "host_crash",
    "host_reboot",
    "migd_kill",
    "migd_restart",
    "server_crash",
    "server_restart",
    "partition",
    "heal",
    "link",
    "link_clear",
)

#: :meth:`FaultPlan.random`: mean of the exponential host outage
#: (seconds) and the ceiling on a link glitch's loss probability.
MEAN_OUTAGE = 8.0
MAX_GLITCH_DROP = 0.4


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: at ``time``, do ``kind`` to ``target``."""

    time: float
    kind: str
    target: Any = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time < 0.0:
            raise ValueError(f"fault scheduled before t=0: {self.time}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )


class FaultPlan:
    """An ordered fault script (builder methods chain)."""

    def __init__(self):
        self.actions: List[FaultAction] = []

    def __len__(self) -> int:
        return len(self.actions)

    def add(self, time: float, kind: str, target: Any = None, **params: Any) -> "FaultPlan":
        self.actions.append(FaultAction(time, kind, target, params))
        return self

    def sorted_actions(self) -> List[FaultAction]:
        """Execution order: by time, ties broken by insertion order."""
        order = sorted(
            range(len(self.actions)), key=lambda i: (self.actions[i].time, i)
        )
        return [self.actions[i] for i in order]

    # ------------------------------------------------------------------
    # Builders (target: a Host/ServerHost, its name, or its address)
    # ------------------------------------------------------------------
    def host_crash(self, time: float, host: Any) -> "FaultPlan":
        return self.add(time, "host_crash", host)

    def host_reboot(self, time: float, host: Any) -> "FaultPlan":
        return self.add(time, "host_reboot", host)

    def host_outage(self, time: float, host: Any, duration: float) -> "FaultPlan":
        """Crash at ``time``, reboot ``duration`` seconds later."""
        return self.host_crash(time, host).host_reboot(time + duration, host)

    def migd_kill(self, time: float) -> "FaultPlan":
        return self.add(time, "migd_kill")

    def migd_restart(self, time: float) -> "FaultPlan":
        return self.add(time, "migd_restart")

    def migd_outage(self, time: float, duration: float) -> "FaultPlan":
        return self.migd_kill(time).migd_restart(time + duration)

    def server_crash(self, time: float, server: Any = 0) -> "FaultPlan":
        return self.add(time, "server_crash", server)

    def server_restart(self, time: float, server: Any = 0) -> "FaultPlan":
        return self.add(time, "server_restart", server)

    def server_outage(self, time: float, duration: float, server: Any = 0) -> "FaultPlan":
        return self.server_crash(time, server).server_restart(time + duration, server)

    def partition(self, time: float, *groups: Sequence[Any]) -> "FaultPlan":
        return self.add(time, "partition", [list(g) for g in groups])

    def heal(self, time: float) -> "FaultPlan":
        return self.add(time, "heal")

    def link(
        self,
        time: float,
        a: Any,
        b: Any,
        drop: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        corrupt: float = 0.0,
        reorder_window: float = 0.002,
    ) -> "FaultPlan":
        """Impair the a<->b link: loss, added latency, and (adversarial)
        per-message duplication, reordering skew, payload corruption."""
        params: Dict[str, Any] = {"drop": drop, "delay": delay}
        # Adversarial knobs travel only when set, so legacy plans apply
        # (and trace) byte-identically.
        if duplicate > 0.0:
            params["duplicate"] = duplicate
        if reorder > 0.0:
            params["reorder"] = reorder
            params["reorder_window"] = reorder_window
        if corrupt > 0.0:
            params["corrupt"] = corrupt
        return self.add(time, "link", (a, b), **params)

    def link_clear(self, time: float, a: Any, b: Any) -> "FaultPlan":
        return self.add(time, "link_clear", (a, b))

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        streams,
        hosts: Sequence[Any],
        duration: float,
        mtbf: float = 120.0,
        link_glitches: int = 0,
        adversarial: bool = False,
    ) -> "FaultPlan":
        """A seeded random churn plan (MOSIX-style: churn is normal).

        ``streams`` is a :class:`~repro.sim.RandomStreams`; all draws
        come from its ``faults.plan`` substream, so the same seed always
        yields the same plan.  Each host crashes with exponential
        inter-arrival times (mean ``mtbf``) and reboots after an
        exponential outage (mean :data:`MEAN_OUTAGE`); optionally
        ``link_glitches`` random loss/delay episodes (loss up to
        :data:`MAX_GLITCH_DROP`) are sprinkled over random host pairs.
        With ``adversarial=True`` each glitch also draws duplication,
        reordering, and corruption probabilities (draws happen only
        then, so legacy plans consume the identical RNG sequence).
        """
        rng = streams.stream("faults.plan")
        plan = cls()
        for host in hosts:
            t = rng.exponential(mtbf)
            while t < duration:
                outage = max(0.1, rng.exponential(MEAN_OUTAGE))
                plan.host_outage(round(t, 6), host, round(outage, 6))
                t += outage + rng.exponential(mtbf)
        if link_glitches and len(hosts) >= 2:
            for _ in range(link_glitches):
                i, j = rng.choice(len(hosts), size=2, replace=False)
                start = rng.uniform(0.0, max(duration - 1.0, 0.0))
                length = rng.uniform(1.0, max(2.0, duration / 8.0))
                drop = rng.uniform(0.05, MAX_GLITCH_DROP)
                delay = rng.uniform(0.0, 0.005)
                a, b = hosts[i], hosts[j]
                duplicate = reorder = corrupt = 0.0
                if adversarial:
                    duplicate = round(rng.uniform(0.0, 0.3), 6)
                    reorder = round(rng.uniform(0.0, 0.3), 6)
                    corrupt = round(rng.uniform(0.0, 0.15), 6)
                plan.link(round(start, 6), a, b, drop=round(drop, 6),
                          delay=round(delay, 6), duplicate=duplicate,
                          reorder=reorder, corrupt=corrupt)
                plan.link_clear(round(min(start + length, duration), 6), a, b)
        return plan
