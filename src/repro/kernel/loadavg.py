"""BSD-style exponentially damped load average, sampled per second."""

from __future__ import annotations

import math
from typing import Optional

from ..config import ClusterParams
from ..sim import Cpu

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
        cpu: Cpu,
        params: Optional[ClusterParams] = None,
    ):
        self.cpu = cpu
        self.params = params or ClusterParams()
        self.value = 0.0
        #: Anticipated near-future arrivals (decays with the same constant).
        self.bias = 0.0
        self._alpha = math.exp(
            -self.params.load_sample_period / self.params.load_decay
        )

    def sample(self) -> None:
        """Fold in the runnable count; every ``load_sample_period``, as a
        member of the cluster's :class:`~repro.sim.Ticker` (which keeps a
        member that returns a false value)."""
        runnable = self.cpu.runnable
        self.value = self.value * self._alpha + runnable * (1.0 - self._alpha)
        self.bias *= self._alpha

    @property
    def effective(self) -> float:
        """Measured load plus the anticipated-migration bias."""
        return self.value + self.bias

    def anticipate_arrivals(self, count: int = 1) -> None:
        """Flood prevention: count processes already heading our way."""
        self.bias += count

    def __repr__(self) -> str:
        return f"<LoadAverage {self.value:.2f}+{self.bias:.2f}>"
