"""Bounded FIFO channels for task-to-task message passing."""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Tuple

from .engine import Simulator
from .errors import ChannelClosed
from .tasks import Effect, _Waiter

__all__ = ["Channel"]


class Channel:
    """A FIFO queue with blocking ``get`` and (optionally) ``put``.

    * ``capacity`` bounds the number of buffered items; ``put`` blocks
      when full.  The default is unbounded.
    * ``close()`` wakes blocked getters with :class:`ChannelClosed` once
      the buffer drains, and makes further ``put`` raise immediately.
    """

    def __init__(self, sim: Simulator, capacity: float = math.inf, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[_Waiter] = deque()
        self._putters: Deque[Tuple[_Waiter, Any]] = deque()
        self._closed = False
        # _Get keeps no per-wait state (the waiter itself is the queue
        # entry), so one shared instance serves every get.
        self._get = _Get(self)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def put(self, item: Any) -> Effect:
        """Effect that enqueues ``item``, blocking while the buffer is full."""
        return _Put(self, item)

    def get(self) -> Effect:
        """Effect that dequeues the next item, blocking while empty."""
        return self._get

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when full instead of blocking."""
        if self._closed:
            raise ChannelClosed(f"channel {self.name!r} is closed")
        if self._getters:
            getter = self._getters.popleft()
            self.sim.defer(getter._resume, item)
            return True
        if len(self._items) < self.capacity:
            self._items.append(item)
            return True
        return False

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def close(self) -> None:
        self._closed = True
        for waiter, _item in self._putters:
            self.sim.defer(
                waiter._throw, ChannelClosed(f"channel {self.name!r} is closed")
            )
        self._putters.clear()
        if not self._items:
            self._drain_getters()

    # ------------------------------------------------------------------
    def _admit_putter(self) -> None:
        if self._putters and len(self._items) < self.capacity:
            waiter, item = self._putters.popleft()
            self._items.append(item)
            self.sim.defer(waiter._resume, None)
        if self._closed and not self._items:
            self._drain_getters()

    def _drain_getters(self) -> None:
        if self._getters:
            error = ChannelClosed(f"channel {self.name!r} is closed")
            for getter in self._getters:
                self.sim.defer(getter._throw, error)
            self._getters.clear()


class _Put(Effect):
    def __init__(self, channel: Channel, item: Any):
        self.channel = channel
        self.item = item

    def bind(self, waiter: _Waiter) -> None:
        ch = self.channel
        if ch._closed:
            waiter.sim.defer(
                waiter._throw, ChannelClosed(f"channel {ch.name!r} is closed")
            )
            return
        if ch._getters:
            getter = ch._getters.popleft()
            waiter.sim.defer(getter._resume, self.item)
            waiter.sim.defer(waiter._resume, None)
        elif len(ch._items) < ch.capacity:
            ch._items.append(self.item)
            waiter.sim.defer(waiter._resume, None)
        else:
            ch._putters.append((waiter, self.item))

    def cancel(self, waiter: _Waiter) -> None:
        ch = self.channel
        ch._putters = deque(
            (w, item) for (w, item) in ch._putters if w is not waiter
        )


class _Get(Effect):
    def __init__(self, channel: Channel):
        self.channel = channel

    def bind(self, waiter: _Waiter) -> None:
        ch = self.channel
        if ch._items:
            item = ch._items.popleft()
            ch._admit_putter()
            waiter.sim.defer(waiter._resume, item)
        elif ch._closed:
            waiter.sim.defer(
                waiter._throw, ChannelClosed(f"channel {ch.name!r} is closed")
            )
        else:
            ch._getters.append(waiter)

    def cancel(self, waiter: _Waiter) -> None:
        ch = self.channel
        try:
            ch._getters.remove(waiter)
        except ValueError:
            pass
