"""Exception types raised by the discrete-event simulation kernel."""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulation-level errors."""


class SimulationDeadlock(SimError):
    """Raised by :meth:`Simulator.run` when tasks remain but no events do.

    A deadlock means at least one task is blocked on an effect (channel
    get, resource acquire, event wait) that can never fire because the
    event queue has drained.  This is almost always a modelling bug, so
    it is surfaced loudly instead of silently ending the run.
    """


class Interrupted(SimError):
    """Raised inside a task that another task interrupted.

    The interrupting party may attach an arbitrary ``cause`` describing
    why (e.g. a signal, an eviction notice).  Tasks that expect to be
    interrupted catch this and inspect ``cause``.
    """

    def __init__(self, cause: object = None):
        super().__init__(f"task interrupted (cause={cause!r})")
        self.cause = cause


class TaskFailed(SimError):
    """Raised when joining a task that terminated with an exception."""

    def __init__(self, task_name: str, original: BaseException):
        super().__init__(f"task {task_name!r} failed: {original!r}")
        self.original = original


class ChannelClosed(SimError):
    """Raised on ``put`` to, or ``get`` from, a closed and drained channel."""


class SnapshotError(SimError):
    """Raised when a :class:`~repro.sim.Task` cannot be pickled.

    The message names the task (one whose generator has already
    started, or one spawned from a bare generator with no factory).
    """
