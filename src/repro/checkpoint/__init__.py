"""Checkpoint/restart: the fault-tolerance alternative to migration.

Sprite migrates processes to *avoid* losing them (evict before the
owner returns, drain before a planned shutdown) — but an unplanned
crash still loses whatever was resident.  This package adds the classic
alternative: periodically write each protected process's state to a
durable image on a file server, and after a crash restart it from the
newest intact image on a surviving host.

The image format deliberately reuses the migration transaction's
process-packaging discipline (:mod:`repro.migration.packaging`): the
same machine-independent state bytes and the same per-stream
references — a checkpoint is "a migration whose target is a file".

Components:

* :mod:`.image`   — :class:`CheckpointImage` (digest-sealed, torn-write
  detectable) and the generation-bounded :class:`CheckpointStore`.
* :mod:`.service` — :class:`CheckpointService`: the registry, one
  lazily spawned sweep task per host, full and incremental (dirty-page)
  modes, and the statistics.
* :mod:`.restart` — :class:`RestartManager`, driven by the fault
  injector's crash detection.

The fault policies the tradeoff study compares (``migrate`` /
``checkpoint`` / ``hybrid``) are chosen by
:func:`repro.faults.run_chaos`.

Zero-cost when off: constructing nothing schedules nothing, and every
hook this package installs elsewhere (``injector.restart``,
``cluster.checkpoints``, ``pcb.checkpoint_lock``) sits behind an
``is not None`` / falsy test on the default path, so checkpoint-off
runs are byte-identical to a build without this package.
"""

from .image import CheckpointImage, CheckpointStore, read_image, write_image
from .restart import RestartManager
from .service import CheckpointService, Registration

__all__ = [
    "CheckpointImage",
    "CheckpointService",
    "CheckpointStore",
    "Registration",
    "RestartManager",
    "read_image",
    "write_image",
]
