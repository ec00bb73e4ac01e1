"""The parallel sweep primitive, and a cluster recipe.

* :func:`forked_map` — run ``job(i)`` for every cell of a sweep, fanned
  over ``workers`` forked processes with a deterministic, index-ordered
  merge (a job returning per-cell registries folds them with
  ``MetricsRegistry.merge_all``).  A sweep job builds its own cluster.
  See :mod:`repro.snapshot.sweep`.
* :class:`Snapshot` — a build function and its arguments; ``fork()``
  builds one cluster.  See :mod:`repro.snapshot.core`.

Docs: ``docs/sweeps.md``.
"""

from .core import Snapshot
from .sweep import SweepError, forked_map

__all__ = [
    "Snapshot",
    "SweepError",
    "forked_map",
]
