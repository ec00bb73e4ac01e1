"""Process-lifetime model from Zhou's trace study [Zho87].

Zhou traced a VAX-11/780 running 4.3BSD and measured process execution
times with mean 1.5 s and standard deviation 19.1 s — a heavy right
tail where most processes die young and a few run for minutes.  The
thesis leans on this distribution twice: it argues that *placement*
(exec-time migration) must be cheap because most processes are short,
and that only known-long-running processes are worth migrating once
active.

We fit a two-phase hyperexponential: with probability ``p`` a short
life (mean ``short_mean``), else a long one (mean ``long_mean``).
Matching the first two moments of (1.5, 19.1) gives approximately
p = 0.99, short mean 0.1515 s, long mean 135 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from ..sim.random import Rng

__all__ = ["ZhouLifetimes", "fit_hyperexponential"]


def fit_hyperexponential(
    mean: float, std: float, p_short: float = 0.99
) -> "tuple[float, float, float]":
    """Solve the moment equations; returns (p_short, short_mean, long_mean).

    ``p_short`` is treated as an upper bound: when the requested
    variance is unattainable at that mix, the tail is made rarer (p is
    raised) just enough to fit, and the effective p is returned.

    With X ~ p*Exp(m1) + (1-p)*Exp(m2):
      E[X]  = p*m1 + (1-p)*m2
      E[X²] = 2*(p*m1² + (1-p)*m2²)

    Substituting m1 out yields a quadratic in m2 which we solve exactly
    (taking the root with m2 > mean).  Requires a coefficient of
    variation >= 1, the regime where a hyperexponential is the right
    model (Zhou's data has CoV ≈ 12.7).
    """
    if std < mean:
        raise ValueError(
            f"hyperexponential needs std >= mean (got std={std}, mean={mean})"
        )
    second_moment = std * std + mean * mean
    # Feasibility: with mix probability p the largest attainable second
    # moment is 2*mean^2/q (at m1 -> 0).  Shrink q when the requested
    # variance needs a rarer, longer tail.
    q = 1.0 - p_short
    q_max = 2.0 * mean * mean / second_moment
    q = min(q, 0.9 * q_max)
    p = 1.0 - q
    # A*m2^2 + B*m2 + C = 0 with:
    coeff_a = q / p
    coeff_b = -2.0 * mean * q / p
    coeff_c = mean * mean / p - second_moment / 2.0
    disc = coeff_b * coeff_b - 4.0 * coeff_a * coeff_c
    if disc < 0:
        raise ValueError("moments not attainable with this mix probability")
    m2 = (-coeff_b + math.sqrt(disc)) / (2.0 * coeff_a)
    m1 = (mean - q * m2) / p
    if m1 <= 0:
        raise ValueError("moments not attainable with this mix probability")
    return p, m1, m2


@dataclass
class ZhouLifetimes:
    """Sampler for process lifetimes (CPU-seconds of demand)."""

    mean: float = 1.5
    std: float = 19.1
    p_short: float = 0.99
    seed: int = 0

    def __post_init__(self) -> None:
        self.p_short, self.short_mean, self.long_mean = fit_hyperexponential(
            self.mean, self.std, self.p_short
        )
        self._rng = Rng(self.seed)

    def sample(self) -> float:
        if self._rng.random() < self.p_short:
            return self._rng.exponential(self.short_mean)
        return self._rng.exponential(self.long_mean)

    def stream(self) -> Iterator[float]:
        while True:
            yield self.sample()
