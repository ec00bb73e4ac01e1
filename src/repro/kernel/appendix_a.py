"""Appendix A as data: where every kernel call runs for a migrated process.

The thesis closes with a call-by-call table ("Because Sprite attempts
to be compatible with 4.3BSD UNIX ... I list the system calls available
in 4.3BSD UNIX").  Sprite achieves transparency by classifying every
call by *where it must execute* for a remote process (for a process at
home every call is trivially local):

* ``local``   — location-independent: handled entirely by the current
  (remote) kernel; the shared network file system makes most file calls
  location-transparent.
* ``home``    — forwarded to the home machine, because the result must
  be identical to never having migrated (time, host identity, process
  families, priorities) or because the state lives there.
* ``creates-state`` — handled where the process runs but with home
  participation to keep the shadow PCB consistent (process creation
  and destruction).
* ``unsupported`` — calls Sprite rejected for migrated processes (or
  that make no sense in Sprite); processes using them could not
  migrate.

This is the only kernel-call table: the ``kernel_call`` gate of
:mod:`repro.kernel.process` looks every call of the program API up here.
The forward-everything design of §4.3 (ablation A2) is modelled
separately, in :mod:`repro.baselines.forwarding`.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["CallClass", "APPENDIX_A", "classes_of"]


class CallClass:
    LOCAL = "local"
    HOME = "home"
    CREATES_STATE = "creates-state"
    UNSUPPORTED = "unsupported"


_L = CallClass.LOCAL
_H = CallClass.HOME
_C = CallClass.CREATES_STATE
_U = CallClass.UNSUPPORTED

#: The 4.3BSD kernel-call inventory with its migration handling.
APPENDIX_A: Dict[str, str] = {
    # -- process control ------------------------------------------------
    "fork": _C, "vfork": _C, "exec": _C, "execve": _C, "exit": _C,
    "wait": _H, "wait3": _H, "waitpid": _H,
    "getpid": _L, "getppid": _L,
    "getpgrp": _H, "setpgrp": _H, "setpgid": _H, "getsid": _H,
    "kill": _H, "killpg": _H, "sigvec": _L, "sigblock": _L,
    "sigsetmask": _L, "sigpause": _L, "sigstack": _L, "sigreturn": _L,
    "ptrace": _U,                    # debugging a migrated process: no
    "profil": _L,
    # -- identity / credentials: travel in the PCB -------------------------
    "getuid": _L, "geteuid": _L, "getgid": _L, "getegid": _L,
    "getgroups": _L, "setgroups": _H, "setreuid": _H, "setregid": _H,
    # -- timing: consistent with the home machine -------------------------
    "gettimeofday": _H, "settimeofday": _H, "getitimer": _L,
    "setitimer": _L, "adjtime": _H,
    # -- resource accounting: accumulated at home -----------------------
    "getrusage": _H, "getrlimit": _L, "setrlimit": _L,
    "getpriority": _H, "setpriority": _H,
    # -- files: the network FS is location-transparent ---------------------
    "open": _L, "creat": _L, "close": _L, "read": _L, "write": _L,
    "readv": _L, "writev": _L, "lseek": _L, "dup": _L, "dup2": _L,
    "pipe": _L,
    "stat": _L, "lstat": _L, "fstat": _L, "access": _L,
    "chmod": _L, "fchmod": _L, "chown": _L, "fchown": _L,
    "utimes": _L, "truncate": _L, "ftruncate": _L,
    "link": _L, "unlink": _L, "symlink": _L, "readlink": _L,
    "rename": _L, "mkdir": _L, "rmdir": _L, "chdir": _L, "fchdir": _L,
    "chroot": _L, "umask": _L, "sync": _L, "fsync": _L, "flock": _L,
    "fcntl": _L, "ioctl": _L, "select": _L,
    "mknod": _L, "mount": _U, "umount": _U, "swapon": _U,
    "quota": _L, "getdirentries": _L, "getdtablesize": _L,
    # -- sockets: proxied through the Internet server pdev [Che87] -------
    "socket": _L, "bind": _L, "listen": _L, "accept": _L, "connect": _L,
    "send": _L, "sendto": _L, "sendmsg": _L, "recv": _L, "recvfrom": _L,
    "recvmsg": _L, "socketpair": _L, "shutdown": _L,
    "getsockname": _L, "getpeername": _L,
    "getsockopt": _L, "setsockopt": _L,
    # -- memory ----------------------------------------------------------
    "sbrk": _L, "brk": _L, "mmap": _U,   # shared mappings: not migratable
    "munmap": _U, "mprotect": _U, "madvise": _L, "mincore": _L,
    "getpagesize": _L, "vhangup": _U,
    # -- host identity: the home's, for transparency ------------------------
    "gethostname": _H, "sethostname": _H, "gethostid": _H, "sethostid": _H,
    "getdomainname": _H, "setdomainname": _H, "uname": _H,
    # -- misc ------------------------------------------------------------
    "sleep": _L, "pause": _L, "alarm": _L, "times": _H,
    "acct": _H, "reboot": _U, "sigsuspend": _L,
    # -- Sprite-specific -------------------------------------------------
    # Calls with no UNIX equivalent are handled where the process runs,
    # with the migrate call the lone exception.
    "migrate": _H,
    "pdev_request": _L, "ps": _L,
}


def classes_of() -> Dict[str, int]:
    """Histogram of handling classes (documentation/reporting helper)."""
    histogram: Dict[str, int] = {}
    for klass in APPENDIX_A.values():
        histogram[klass] = histogram.get(klass, 0) + 1
    return histogram
