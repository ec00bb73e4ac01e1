"""A cluster recipe: how to build one, not a copy of one.

A :class:`Snapshot` holds a build function and its arguments, and every
:meth:`Snapshot.fork` calls it, so each fork is a freshly built cluster
sharing nothing with the recipe, the caller or its siblings.  Building
a cluster costs less than unpickling one would (``docs/sweeps.md``,
"Cost"), and a built cluster is what every fingerprint is pinned on.
``benchmarks/perf`` reads these names: it calls
``build_chaos_base(...).fork()`` and times ``Snapshot.fork``.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Snapshot"]


class Snapshot:
    """``build`` and its arguments; :meth:`fork` builds one cluster."""

    __slots__ = ("build", "args")

    def __init__(self, build: Callable[..., Any], *args: Any):
        self.build = build
        self.args = args

    def fork(self) -> Any:
        """A freshly built cluster: ``build(*args)``."""
        return self.build(*self.args)
