"""Kernel-call classification for transparent migration (Appendix A).

Sprite achieves transparency by classifying every kernel call by *where
it must execute* for a remote process:

* ``LOCAL`` — location-independent: handled entirely by the current
  kernel (file I/O is in this class because the network file system is
  already location-transparent).
* ``HOME`` — location-dependent on the home machine: forwarded to the
  home kernel so results are identical to never having migrated
  (``gettimeofday`` keeps clocks consistent, ``gethostname`` names the
  home, process-family calls see the home's process table).
* ``CREATES_STATE`` — handled locally but with home participation to
  keep the shadow PCB consistent (fork/exec/exit).

The table is data, not code: each kernel holds its own copy
(``SpriteKernel.call_table``).  The forward-everything design of §4.3
(ablation A2) is modelled separately, in :mod:`repro.baselines.forwarding`.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["CallClass", "CALL_TABLE", "call_class"]


class CallClass:
    LOCAL = "local"
    HOME = "home"
    CREATES_STATE = "creates-state"


#: Where each kernel call executes for a *remote* process.  For a
#: process at home every call is trivially local.
CALL_TABLE: Dict[str, str] = {
    # -- identity and time ------------------------------------------------
    "getpid": CallClass.LOCAL,        # pids are unique cluster-wide
    "getppid": CallClass.LOCAL,
    "gethostname": CallClass.HOME,    # transparency: report the home host
    "gettimeofday": CallClass.HOME,   # keep time consistent with home
    "getrusage": CallClass.HOME,      # usage accumulates at home
    "getpgrp": CallClass.HOME,
    "setpgrp": CallClass.HOME,
    # -- files: the shared FS is location-transparent ---------------------
    "open": CallClass.LOCAL,
    "close": CallClass.LOCAL,
    "read": CallClass.LOCAL,
    "write": CallClass.LOCAL,
    "lseek": CallClass.LOCAL,
    "stat": CallClass.LOCAL,
    "unlink": CallClass.LOCAL,
    "chdir": CallClass.LOCAL,
    "ioctl": CallClass.LOCAL,
    "pipe": CallClass.LOCAL,          # buffer lives at the I/O server
    # -- process family ----------------------------------------------------
    "fork": CallClass.CREATES_STATE,  # pid allocated by the home kernel
    "exec": CallClass.CREATES_STATE,
    "exit": CallClass.CREATES_STATE,  # home must learn of the death
    "wait": CallClass.HOME,           # children are tracked at home
    "kill": CallClass.HOME,           # routed via the target's home
    # -- scheduling ---------------------------------------------------------
    "sleep": CallClass.LOCAL,
    "migrate": CallClass.HOME,        # Appendix A: forwarded home
    "sigvec": CallClass.LOCAL,        # signal dispositions move with PCB
}


def call_class(name: str) -> str:
    """Class of a kernel call; unknown Sprite-only calls default LOCAL
    (Appendix A: calls with no UNIX equivalent are handled remotely,
    with the migrate call the lone exception — listed above)."""
    return CALL_TABLE.get(name, CallClass.LOCAL)
