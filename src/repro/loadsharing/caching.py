"""Host-assignment caching (thesis ch. 9 future work).

"With many hosts the host selection facility may also potentially
become a bottleneck, unless host assignments may be cached effectively
to reduce the rate of requests to a central server."  This wrapper
implements that idea: released hosts are parked in a local cache for a
short TTL and handed back to the next request without a server round
trip; expiry (or explicit flush) returns them to the facility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, List, Sequence

from ..sim import Effect
from .base import HostSelector

__all__ = ["CachingSelector"]


@dataclass
class _CachedHost:
    address: int
    cached_at: float


class CachingSelector(HostSelector):
    """Wraps any selector with a local assignment cache."""

    name = "caching"

    def __init__(self, inner: HostSelector, ttl: float = 10.0):
        super().__init__(inner.host)
        self.inner = inner
        self.ttl = ttl
        self._cache: List[_CachedHost] = []
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    def _expire(self) -> Generator[Effect, None, None]:
        now = self.host.sim.now
        fresh = [c for c in self._cache if now - c.cached_at <= self.ttl]
        expired = [c for c in self._cache if now - c.cached_at > self.ttl]
        self._cache = fresh
        if expired:
            yield from self.inner.release([c.address for c in expired])

    def request(
        self, n: int = 1, exclude: Sequence[int] = ()
    ) -> Generator[Effect, None, List[int]]:
        started = self._timed_request_start()
        yield from self._expire()
        excluded = set(exclude)
        granted: List[int] = []
        keep: List[_CachedHost] = []
        for cached in self._cache:
            if len(granted) < n and cached.address not in excluded:
                granted.append(cached.address)
                self.cache_hits += 1
            else:
                keep.append(cached)
        self._cache = keep
        if len(granted) < n:
            self.cache_misses += 1
            more = yield from self.inner.request(
                n - len(granted), exclude=list(excluded | set(granted))
            )
            granted.extend(more)
        return self._timed_request_end(started, granted)

    def release(self, addresses: Iterable[int]) -> Generator[Effect, None, None]:
        """Park released hosts locally instead of returning them."""
        now = self.host.sim.now
        for address in addresses:
            self._cache.append(_CachedHost(address=address, cached_at=now))
        yield from self._expire()

    def flush(self) -> Generator[Effect, None, None]:
        """Return every cached host to the facility immediately."""
        cached, self._cache = self._cache, []
        if cached:
            yield from self.inner.release([c.address for c in cached])
