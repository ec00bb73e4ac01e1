"""Deterministic discrete-event simulation kernel.

This package is the substrate for the whole reproduction: a clock and
event queue (:mod:`.engine`), generator-coroutine tasks and effects
(:mod:`.tasks`), channels (:mod:`.channels`), contended resources and a
round-robin CPU model (:mod:`.resources`), named random substreams
(:mod:`.random`), and structured tracing, records and spans
(:mod:`.trace`).
"""

from .channels import Channel
from .engine import EventHandle, Simulator
from .errors import (
    ChannelClosed,
    Interrupted,
    SimError,
    SimulationDeadlock,
    SnapshotError,
    TaskFailed,
)
from .random import RandomStreams
from .resources import Cpu, Resource, SliceRun
from .state import Counter, StateRegistry
from .tasks import (
    TIMED_OUT,
    Effect,
    all_of,
    SimEvent,
    Sleep,
    Task,
    first,
    run_until_complete,
    spawn,
    with_timeout,
)
from .trace import Span, TraceRecord, Tracer

__all__ = [
    "Channel",
    "ChannelClosed",
    "Counter",
    "Cpu",
    "Effect",
    "EventHandle",
    "Interrupted",
    "RandomStreams",
    "Resource",
    "SimError",
    "SimEvent",
    "SimulationDeadlock",
    "Simulator",
    "Sleep",
    "SliceRun",
    "SnapshotError",
    "Span",
    "StateRegistry",
    "Task",
    "TaskFailed",
    "TIMED_OUT",
    "TraceRecord",
    "Tracer",
    "all_of",
    "first",
    "run_until_complete",
    "spawn",
    "with_timeout",
]
