"""How fast the host is right now, sampled all through a repetition.

The reference box is a few cores of a shared host.  Its speed flips
between an undisturbed state and states down to half as fast, every few
seconds to minutes, with nothing in the guest to show for it (no steal
time; CPU time rises with wall time).  A timing taken there says more
about the moment than about the program.  So every untraced repetition
times, all through its set-up and its timed region, a fixed *reference
loop* of pure Python, and ``run.py`` scales each timing by
``REFERENCE_S`` over the mean sample taken while it ran: seconds of the
undisturbed reference box.

The loop has two halves, because the host disturbs two things.  The first
does what the simulator's inner loop does (generator resumes, heap pushes
and pops, dict stores, integer arithmetic) in a few KB, and slows when
the core is shared.  The second reads its way through 4 MB in scattered
order, and slows when the cache is.  Neither allocates a container, so
the loop costs the same every time but for what the host does meanwhile
and what the workload left in the cache.  Between ten runs of each
workload on a disturbed afternoon, the median of a run's repetitions
spread 8-27 % between quartiles as the clock read it, 2-7 % scaled.

The samples run from an interval timer's signal handler, between two
bytecodes of whatever the main thread is doing; they read and write
nothing but the sampler itself.  A process that did not have the
processor for most of the last interval (the ``crash_matrix`` parent,
waiting for a forked child) skips its sample: it is not its speed that
sets the time.  A forked child samples itself instead and sends what it
measures home through a pipe.
"""

from __future__ import annotations

import heapq
import os
import signal
import struct
import time
from typing import Any, Dict, List, Tuple

#: Host seconds one sample takes on the undisturbed reference box.
REFERENCE_S = 0.0005
#: Seconds between samples: they cost 2-3 % of a repetition.
INTERVAL = 0.02
#: Iterations of the compute half, steps of the cache half, bytes it roams.
SPINS, STEPS, FIELD = 600, 1000, 1 << 22


def _ticks(count: int):
    yield from range(count)


def spin(count: int) -> int:
    heap: List[int] = []
    table: Dict[int, int] = {}
    total = 0
    for tick in _ticks(count):
        heapq.heappush(heap, tick * 7919 % 1013)
        if tick & 1:
            total += heapq.heappop(heap)
        table[tick & 255] = total
    return total


def walk(field: bytes, at: int, steps: int) -> int:
    for _ in range(steps):
        at = (at * 40509 + 12345 + field[at]) & (FIELD - 1)
    return at


class HostSpeed:
    """Times the reference loop every ``INTERVAL`` seconds until stopped."""

    RECORD = struct.Struct("dd")

    def __init__(self) -> None:
        #: ``(time.perf_counter() at its start, host seconds it took)`` of
        #: each sample, this process's and, after ``stop``, its children's.
        self.samples: List[Tuple[float, float]] = []
        # Read-only, so that a forked child shares it and copies no page.
        self.field = bytes(range(256)) * (FIELD // 256)
        self.at = 0
        self.cpu = 0.0
        #: Where a forked child writes its samples, where this process
        #: reads them.
        self.inbox, self.outbox = os.pipe()
        os.set_blocking(self.inbox, False)
        os.set_blocking(self.outbox, False)
        self.child = False

    def _sample(self, _signum: int, _frame: Any) -> None:
        cpu, before = time.process_time(), self.cpu
        self.cpu = cpu
        if cpu - before < INTERVAL / 2:
            return
        started = time.perf_counter()
        spin(SPINS)
        self.at = walk(self.field, self.at, STEPS)
        took = time.perf_counter() - started
        if self.child:
            try:
                os.write(self.outbox, self.RECORD.pack(started, took))
            except BlockingIOError:  # 64 KB of samples unread: drop it
                pass
        else:
            self.samples.append((started, took))

    def _forked(self) -> None:
        self.child = True
        self.cpu = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        os.register_at_fork(after_in_child=self._forked)

    def stop(self) -> None:
        """Stop sampling and collect what the children, all ended, sent."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        os.close(self.outbox)
        sent = b""
        while True:
            try:
                chunk = os.read(self.inbox, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            sent += chunk
        os.close(self.inbox)
        whole = len(sent) - len(sent) % self.RECORD.size
        self.samples += self.RECORD.iter_unpack(sent[:whole])

    def between(self, start: float, end: float) -> List[float]:
        """Host seconds of each sample begun in that stretch of
        ``time.perf_counter()``."""
        return [took for when, took in self.samples if start <= when < end]
