"""BSD-style exponentially damped load average, sampled per second."""

from __future__ import annotations

import math
from typing import Optional

from ..config import ClusterParams
from ..sim import Cpu, Simulator

__all__ = ["LoadAverage"]


class LoadAverage:
    """Tracks a host's damped runnable-process count.

    The load-sharing layer also *biases* the value when migrations are
    inbound ("flood prevention", [BSW89]): each expected arrival bumps
    the load immediately so many clients cannot dogpile one idle host
    before its measured load catches up.
    """

    def __init__(
        self,
        sim: Simulator,
        cpu: Cpu,
        params: Optional[ClusterParams] = None,
    ):
        self.sim = sim
        self.cpu = cpu
        self.params = params or ClusterParams()
        self.value = 0.0
        #: Anticipated near-future arrivals (decays with the same constant).
        self.bias = 0.0
        self._alpha = math.exp(
            -self.params.load_sample_period / self.params.load_decay
        )

    # The sampler is the highest-frequency periodic activity in a cluster
    # (one event per host per simulated second), so it runs as a bare
    # self-rescheduling callback rather than a coroutine task: no
    # generator frame, no Effect binding per tick.
    def _tick(self) -> None:
        self.sample()
        self.sim.schedule(self.params.load_sample_period, self._tick)

    @staticmethod
    def start_batched(sim: Simulator, loadavgs: "list[LoadAverage]") -> None:
        """Start the periodic tick of a group of samplers (the only way
        a sampler starts ticking).

        The cluster starts every host's per-second tick in a single
        ``schedule_many`` instead of one startup event per host.  All
        samplers must share the same ``load_sample_period``.
        """
        if not loadavgs:
            return
        period = loadavgs[0].params.load_sample_period
        sim.schedule_many(period, [(la._tick, ()) for la in loadavgs])

    def sample(self) -> float:
        runnable = self.cpu.runnable
        self.value = self.value * self._alpha + runnable * (1.0 - self._alpha)
        self.bias *= self._alpha
        return self.value

    @property
    def effective(self) -> float:
        """Measured load plus the anticipated-migration bias."""
        return self.value + self.bias

    def anticipate_arrivals(self, count: int = 1) -> None:
        """Flood prevention: count processes already heading our way."""
        self.bias += count

    def __repr__(self) -> str:
        return f"<LoadAverage {self.value:.2f}+{self.bias:.2f}>"
