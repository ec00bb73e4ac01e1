"""Cluster snapshots and the parallel sweep runner.

* :class:`Snapshot` — capture a fully built (not yet run) cluster as
  one deterministic byte string; :meth:`Snapshot.fork` materializes
  independent copies.  See :mod:`repro.snapshot.core`.
* :class:`SweepRunner` — run many sweep cells from one warmed base,
  each on its own materialization of it, fanned over ``workers``
  forked processes with a deterministic, index-ordered merge.  See
  :mod:`repro.snapshot.sweep`.

Entry point from a cluster: ``cluster.snapshot()``.  Docs:
``docs/snapshots.md``.
"""

from .core import PICKLE_PROTOCOL, Snapshot
from .sweep import SweepError, SweepRunner, forked_map, forked_map_metrics

__all__ = [
    "PICKLE_PROTOCOL",
    "Snapshot",
    "SweepError",
    "SweepRunner",
    "forked_map",
    "forked_map_metrics",
]
