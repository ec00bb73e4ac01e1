"""Fan a parameter sweep out over forked worker processes.

The sweeps this repo runs — the 132-cell crash matrix, chaos campaigns,
policy/network parameter grids — are each a job per cell, and every
job builds its own cluster: a build is cheaper than unpickling a
captured one (``docs/sweeps.md``, "Cost"), so a cell costs what its own
simulation costs.  Nothing crosses a process boundary but each cell's
(small) result, pickled back over a pipe.

Why one ``os.fork`` per *worker* rather than per cell: a forked child
is not free to run in.  Every object it touches has its reference
count written, which copies the page it lives on; a child that ran
one matrix cell took ~1,100 minor page faults, and the matrix ran 1.5x
slower through one fork per cell than in one process
(``benchmarks/bench_sweep.py``).  So :func:`forked_map` forks
``min(workers, count)`` children once, and each runs a fixed stripe of
the jobs, one after the other.  ``os.fork`` rather than a
``multiprocessing`` pool because jobs are closures over the caller's
state and nothing about them is ever pickled.

Determinism contract
--------------------
Child *w* of *W* runs jobs *w, w+W, w+2W, …* in index order, results
come back **indexed by cell position** and merge in input order, and
every cell builds its cluster from its own arguments, so the result
list — and any fingerprint derived from it — is byte-identical for any
``workers`` count, including the in-process path.  The cells of a
stripe share a process: state kept at module level would leak from one
to the next and show as a fingerprint that depends on ``workers``
(``tests/test_snapshot.py`` pins that it does not).

Portability: on platforms without ``os.fork`` the same loop runs
in-process — same results, no parallelism, and a cell's exception
propagates as itself.
"""

from __future__ import annotations

import os
import pickle
import select
import traceback
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["SweepError", "forked_map", "forked_map_metrics"]

#: One pinned protocol for every result crossing the pipe.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
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
    pristine parent image: it builds the cluster it runs on.

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
