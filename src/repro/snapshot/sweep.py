"""Fan a parameter sweep out over forked workers of one base.

The sweeps this repo runs — the 132-cell crash matrix, chaos campaigns,
policy/network parameter grids — all repeat the same expensive prefix:
build a cluster, install images, wire a load-sharing service, arm the
fault layer.  :class:`SweepRunner` pays that prefix **once**: the base
is captured as a :class:`~repro.snapshot.Snapshot`, and every cell runs
on its own materialization of it (0.7 ms for the 14 KB matrix base).
Nothing is pickled per cell except each cell's (small) result, shipped
back over a pipe.

Why one ``os.fork`` per *worker* rather than per cell: a forked child
is not free to run in.  Every object it touches has its reference
count written, which copies the page it lives on; a child that ran
one matrix cell took ~1,100 minor page faults, and the matrix ran 1.5x
slower through one fork per cell than on fresh builds in one process
(``benchmarks/bench_sweep.py``).  So
:func:`forked_map` forks ``min(workers, count)`` children once, and
each runs a fixed stripe of the jobs, one after the other.  ``os.fork``
rather than a ``multiprocessing`` pool because jobs are closures over
the caller's state and nothing about them is ever pickled.

Determinism contract
--------------------
Child *w* of *W* runs jobs *w, w+W, w+2W, …* in index order, results
come back **indexed by cell position** and merge in input order, and
every cell starts from an identical materialization, so the result
list — and any fingerprint derived from it — is byte-identical for any
``workers`` count, including the in-process path.  The cells of a
stripe share a process: state kept at module level would leak from one
to the next and show as a fingerprint that depends on ``workers``
(``tests/test_snapshot.py`` pins that it does not).

Portability: on platforms without ``os.fork`` (or with ``cow=False``)
the same loop runs in-process — same results, no parallelism, and a
cell's exception propagates as itself.
"""

from __future__ import annotations

import os
import pickle
import select
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .core import PICKLE_PROTOCOL, Snapshot

__all__ = ["SweepRunner", "SweepError", "forked_map", "forked_map_metrics"]

_CHUNK = 1 << 16
#: Each outcome crosses the pipe as this many length bytes, then a pickle.
_PREFIX = 8


class SweepError(RuntimeError):
    """Sweep cells failed; names each with its child's traceback or fate."""


def _has_fork() -> bool:
    return hasattr(os, "fork")


def _run_stripe(job: Callable[[int], Any], stripe: range, write_fd: int) -> None:
    """Child side: run the stripe's jobs, ship each outcome as produced."""
    for index in stripe:
        try:
            payload = pickle.dumps((True, job(index)), PICKLE_PROTOCOL)
        except Exception:  # noqa: BLE001 - costs this cell, not the stripe
            payload = pickle.dumps(
                (False, traceback.format_exc()), PICKLE_PROTOCOL
            )
        payload = len(payload).to_bytes(_PREFIX, "big") + payload
        while payload:
            payload = payload[os.write(write_fd, payload):]


def forked_map(
    job: Callable[[int], Any],
    count: int,
    workers: int = 1,
) -> List[Any]:
    """Run ``job(i)`` for ``i in range(count)`` in forked worker processes.

    ``min(workers, count)`` children are forked, once; child *w* runs
    jobs *w, w+W, …* in index order, pickling each return value into
    its pipe as it is produced, and ``os._exit``\\ s — the parent is
    never mutated.  Results are returned in index order (deterministic
    for any ``workers``).  A job sees whatever the earlier jobs of its
    stripe left behind in the process, so it must not rely on a
    pristine parent image (:class:`SweepRunner` hands each cell a fresh
    cluster instead).

    A failure costs its own cell: a job that raises, or whose result
    does not pickle, is reported with its traceback and the stripe goes
    on; a child that dies takes the cell it was running and those it
    never reached.  Every other result is still computed and every
    child reaped before :class:`SweepError` names the failed cells.
    """
    if not _has_fork():  # pragma: no cover - non-POSIX fallback
        return [job(i) for i in range(count)]
    workers = min(max(1, workers), count)
    results: List[Any] = [None] * count
    failures: Dict[int, str] = {}
    children: Dict[int, Tuple[int, Any, bytearray]] = {}  # read-fd -> child
    for worker in range(workers):
        stripe = range(worker, count, workers)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Child: never return into the parent's stack or run its
            # exit machinery; hold no end of a sibling's pipe.
            try:
                for fd in (read_fd, *children):
                    os.close(fd)
                _run_stripe(job, stripe, write_fd)
            except BaseException:  # noqa: BLE001 - interrupt, exit, dead pipe
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        os.close(write_fd)
        children[read_fd] = (pid, iter(stripe), bytearray())
    while children:
        ready, _, _ = select.select(list(children), [], [])
        for fd in ready:
            pid, unreported, buffer = children[fd]
            chunk = os.read(fd, _CHUNK)
            buffer += chunk
            while len(buffer) >= _PREFIX:
                end = _PREFIX + int.from_bytes(buffer[:_PREFIX], "big")
                if len(buffer) < end:
                    break
                ok, value = pickle.loads(buffer[_PREFIX:end])
                del buffer[:end]
                index = next(unreported)
                if ok:
                    results[index] = value
                else:
                    failures[index] = f"cell {index} failed in child:\n{value}"
            if chunk:
                continue
            del children[fd]
            os.close(fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            fate = f"exited with status {code}" if code >= 0 else (
                f"was killed by signal {-code}")
            for index in unreported:
                failures[index] = (
                    f"cell {index}: child {pid} {fate} before reporting it"
                )
    if failures:
        raise SweepError("\n".join(failures[i] for i in sorted(failures)))
    return results


def forked_map_metrics(
    job: Callable[[int], Any],
    count: int,
    workers: int = 1,
) -> Any:
    """:func:`forked_map` for jobs that also produce per-cell metrics.

    ``job(i)`` must return ``(value, registry_or_none)`` where the
    second element is a :class:`~repro.obs.metrics.MetricsRegistry` (or
    ``None`` for cells with nothing to report).  Each cell's registry
    crosses the fork boundary through the same result pipe as its
    value; the parent folds them with
    :meth:`MetricsRegistry.merge_from` **in cell-index order**, so the
    merged aggregate — counter totals, histogram buckets, series — is
    fingerprint-stable for any ``workers`` count.

    Returns ``(values, merged_registry)``.
    """
    from ..obs.metrics import MetricsRegistry

    values: List[Any] = []
    merged = MetricsRegistry()
    for index, pair in enumerate(forked_map(job, count, workers)):
        if not (isinstance(pair, tuple) and len(pair) == 2):
            raise SweepError(
                f"cell {index}: forked_map_metrics jobs must return "
                f"(value, MetricsRegistry-or-None), got {type(pair).__name__}"
            )
        value, registry = pair
        values.append(value)
        if registry is not None:
            merged.merge_from(registry)
    return values, merged


class SweepRunner:
    """Run one cell function over many cells from a shared warm base.

    One rule: **every cell runs on its own materialization of the
    base**, whichever process it runs in.  ``base`` is one of:

    * a :class:`Snapshot` — ``fork()``\\ ed per cell;
    * a live cluster that has not run — captured once, here, as a
      :class:`Snapshot`; the caller's object is never touched and
      stays reusable;
    * a zero-argument builder callable — called per cell: the
      fresh-build baseline snapshots are measured against.

    ``cell_fn(cluster, cell)`` runs inside a worker process (so it may
    be a closure — nothing about it is ever pickled) and must return a
    picklable value.
    """

    def __init__(
        self,
        base: Any,
        workers: int = 1,
        cow: Optional[bool] = None,
    ):
        self.workers = max(1, int(workers))
        self.cow = _has_fork() if cow is None else bool(cow)
        if isinstance(base, Snapshot):
            self._fresh = base.fork
        elif callable(base):
            self._fresh = base
        else:
            self._fresh = Snapshot.capture(base).fork

    def run(
        self,
        cells: Sequence[Any],
        cell_fn: Callable[[Any, Any], Any],
    ) -> List[Any]:
        """Map ``cell_fn`` over ``cells``; results in input order."""
        cells = list(cells)
        fresh = self._fresh

        def job(index: int) -> Any:
            return cell_fn(fresh(), cells[index])

        if self.cow:
            return forked_map(job, len(cells), self.workers)
        return [job(index) for index in range(len(cells))]

