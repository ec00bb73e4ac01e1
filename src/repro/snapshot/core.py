"""Capturing a whole cluster as one immutable byte string.

A :class:`Snapshot` is a deterministic serialization of a fully built
cluster — engine event queue and sequence counters, tasks, channels,
kernels, FS servers and caches, stream tables, migration journals,
lease registries, RNG streams, metrics — everything reachable from the
cluster object.  :meth:`Snapshot.fork` materializes an independent
copy; forks share nothing with each other or with the original, so a
sweep can run one warmed-up base through hundreds of divergent
scenarios.

What can be captured
--------------------
A cluster whose coroutines have not started running.  Simulated tasks
are Python generators, and a *started* generator cannot be serialized;
an **unstarted** one can, because :class:`~repro.sim.tasks.Task`
remembers the zero-argument factory it was spawned from and rebuilds
the generator on materialization (see ``Task.__getstate__``).  In
practice that means: build the cluster, install images, arm fault
plans and injectors — then snapshot, *before* calling ``run()``.
Snapshotting a cluster that has live half-run coroutines raises
:class:`~repro.sim.SnapshotError` naming the offending task.

A materialized cluster runs as fast as a built one
--------------------------------------------------
By default an instance's pickled state is its ``__dict__``, and the
unpickler restores it by asking the new object for its ``__dict__`` —
after which CPython (3.11 on) no longer keeps that object's attributes
inline, and every later attribute access on it takes the slow path
(a materialized crash-matrix cell ran 1.2-1.3x slower than the same
cell on a built cluster).  :meth:`Snapshot.capture` therefore writes a
plain instance's state as ``(None, attrs)``, the shape the unpickler
restores with ``setattr``, which leaves the attributes inline.

Determinism
-----------
Capture is pure: the same cluster state always yields the same bytes
(:attr:`Snapshot.digest` is its identity), and every fork of one
snapshot starts from an identical object graph — so a forked cell and
a freshly built cell with the same seed produce byte-identical traces.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from typing import Any, Dict, Optional

from ..sim import SnapshotError

__all__ = ["Snapshot", "PICKLE_PROTOCOL"]

#: One pinned protocol, so a snapshot's bytes (and digest) don't vary
#: with the interpreter's default.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def _attrs_as_slot_state(obj: Any) -> Any:
    """``Pickler.reducer_override``: a plain instance's ``__dict__`` state
    goes out as ``(None, attrs)``, which the unpickler restores with
    ``setattr`` (see the module docstring); everything else as usual."""
    cls = type(obj)
    if (
        cls.__module__ == "builtins"
        or cls.__reduce_ex__ is not object.__reduce_ex__
        or cls.__setattr__ is not object.__setattr__
        or hasattr(cls, "__setstate__")
    ):
        return NotImplemented
    reduced = obj.__reduce_ex__(PICKLE_PROTOCOL)
    if len(reduced) < 3 or type(reduced[2]) is not dict:
        return NotImplemented
    return (*reduced[:2], (None, reduced[2]), *reduced[3:])


class _CapturePickler(pickle.Pickler):
    reducer_override = staticmethod(_attrs_as_slot_state)


class Snapshot:
    """An immutable captured cluster; :meth:`fork` materializes copies."""

    __slots__ = ("payload", "meta")

    def __init__(self, payload: bytes, meta: Dict[str, Any]):
        self.payload = payload
        self.meta = meta

    # ------------------------------------------------------------------
    @classmethod
    def capture(
        cls,
        cluster: Any,
        extras: Optional[Dict[str, Any]] = None,
    ) -> "Snapshot":
        """Serialize ``cluster`` (plus named companion objects).

        ``extras`` are captured in the *same* pickle, so references they
        share with the cluster stay shared in every fork — e.g. a
        :class:`~repro.loadsharing.LoadSharingService` whose selectors
        point at the cluster's hosts.  Forks expose them as
        ``fork.extras[name]``.
        """
        extras = dict(extras or {})
        try:
            buffer = io.BytesIO()
            _CapturePickler(buffer, PICKLE_PROTOCOL).dump((cluster, extras))
            payload = buffer.getvalue()
        except SnapshotError:
            raise
        except Exception as exc:  # noqa: BLE001 - translate, keep cause
            raise SnapshotError(
                f"cluster state is not snapshotable: {exc!r}; snapshots "
                "must be taken before the simulation runs (all tasks "
                "unstarted) and every construction-time callback must be "
                "a picklable object, not a closure"
            ) from exc
        meta: Dict[str, Any] = {
            "nbytes": len(payload),
            "extras": sorted(extras),
            "sim_now": getattr(getattr(cluster, "sim", None), "now", None),
        }
        return cls(payload, meta)

    # ------------------------------------------------------------------
    def fork(self) -> Any:
        """Materialize one independent copy of the captured cluster.

        Every call returns a fresh object graph sharing nothing with
        the snapshot, the original cluster, or sibling forks.  Captured
        ``extras`` hang off the returned cluster as ``.extras``.
        """
        cluster, extras = pickle.loads(self.payload)
        try:
            cluster.extras = extras
        except AttributeError:  # slotted/foreign cluster type: skip
            pass
        return cluster

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return len(self.payload)

    @property
    def digest(self) -> str:
        """SHA-256 of the payload — the snapshot's deterministic identity."""
        return hashlib.sha256(self.payload).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debug nicety
        return (
            f"Snapshot(nbytes={self.nbytes}, digest={self.digest[:12]}..., "
            f"extras={self.meta.get('extras', [])})"
        )
