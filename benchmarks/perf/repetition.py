"""Entry point of one repetition: ``run.py`` starts it as a fresh process.

    python repetition.py --workload NAME --seed N --scale S --stamp T
                         [--traced] [--spans PATH] [--variant V]

It starts sampling the host's speed before anything else, so that the
import of ``repro`` (most of a short set-up) is covered, then hands over
to ``workloads.main``.  A traced repetition is not sampled: its timings
go to per-layer metrics as they are, and a sample would land in whatever
span is open.
"""

from __future__ import annotations

import sys

from hostspeed import HostSpeed

if __name__ == "__main__":
    speed = HostSpeed()
    if "--traced" not in sys.argv:
        speed.start()
    import workloads

    sys.exit(workloads.main(speed))
