"""The per-host model kernel: processes, kernel calls, signals, hosts.

Programs are generator functions receiving a :class:`UserContext`;
kernels cooperate via RPC for everything the thesis routes through a
process's home machine (pid allocation, exits, waits, location-
dependent calls, signal routing).
"""

from . import signals
from .appendix_a import APPENDIX_A, CallClass, classes_of
from .host import Host
from .kernel import (
    PID_STRIDE,
    NoSuchProcess,
    ProcessKilled,
    SpriteKernel,
    home_of_pid,
)
from .loadavg import LoadAverage
from .pcb import ExitStatus, MigrationTicket, Pcb, ProcState, Vm
from .process import KERNEL_CALLS, ExitProcess, Program, UserContext

__all__ = [
    "APPENDIX_A",
    "CallClass",
    "ExitProcess",
    "ExitStatus",
    "Host",
    "KERNEL_CALLS",
    "LoadAverage",
    "MigrationTicket",
    "NoSuchProcess",
    "PID_STRIDE",
    "Pcb",
    "ProcState",
    "ProcessKilled",
    "Program",
    "SpriteKernel",
    "UserContext",
    "Vm",
    "classes_of",
    "home_of_pid",
    "signals",
]
