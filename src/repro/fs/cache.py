"""Client block cache with delayed write-back.

Sprite clients cache file blocks in main memory and write dirty blocks
back ~30 seconds after they are written [NWO88].  The cache tracks
(path, block) entries tagged with the file version; stale versions are
dropped at open time.  Eviction is LRU; evicting a dirty block forces a
write-back, which the owner (FsClient) performs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["BlockCache", "CacheBlock"]

BlockKey = Tuple[str, int]  # (path, block index)


@dataclass
class CacheBlock:
    path: str
    index: int
    version: int
    dirty: bool = False
    dirty_since: float = 0.0


class BlockCache:
    """An LRU cache of file blocks for one client kernel."""

    def __init__(self, capacity_blocks: int, block_size: int):
        if capacity_blocks < 1:
            raise ValueError("cache needs at least one block")
        self.capacity = capacity_blocks
        self.block_size = block_size
        self._blocks: "OrderedDict[BlockKey, CacheBlock]" = OrderedDict()
        #: Dirty blocks in the cache, per path (no entry at zero).  Most
        #: flushes and stream hand-offs find none of theirs, and need not
        #: walk the whole LRU to learn it.
        self._dirty: Dict[str, int] = {}
        # Metrics.
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def dirty_blocks(self, path: Optional[str] = None) -> List[CacheBlock]:
        if not (self._dirty if path is None else path in self._dirty):
            return []
        return [
            b
            for b in self._blocks.values()
            if b.dirty and (path is None or b.path == path)
        ]

    def dirty_bytes(self, path: Optional[str] = None) -> int:
        """Bytes of the dirty blocks cached for ``path`` (any path if
        ``None``), read from the per-path counts without a walk."""
        if path is None:
            return sum(self._dirty.values()) * self.block_size
        return self._dirty.get(path, 0) * self.block_size

    # ------------------------------------------------------------------
    def lookup_range(
        self, path: str, version: int, offset: int, nbytes: int
    ) -> Tuple[int, int]:
        """Count cache hits/misses over a byte range.

        Returns ``(hit_blocks, miss_blocks)`` and touches hit blocks for
        LRU recency.  Blocks cached under an older version count as
        misses (they will be overwritten on install).
        """
        first = offset // self.block_size
        last = (offset + max(nbytes, 1) - 1) // self.block_size
        hit = 0
        miss = 0
        for index in range(first, last + 1):
            block = self._blocks.get((path, index))
            if block is not None and block.version == version:
                self._blocks.move_to_end((path, index))
                hit += 1
            else:
                miss += 1
        self.hits += hit
        self.misses += miss
        return hit, miss

    def install_range(
        self,
        path: str,
        version: int,
        offset: int,
        nbytes: int,
        dirty: bool,
        now: float,
    ) -> List[CacheBlock]:
        """Insert (or overwrite) the blocks covering a byte range.

        Returns dirty blocks evicted to make room — the caller must
        write those back to their server.
        """
        first = offset // self.block_size
        last = (offset + max(nbytes, 1) - 1) // self.block_size
        evicted: List[CacheBlock] = []
        for index in range(first, last + 1):
            key = (path, index)
            block = self._blocks.get(key)
            if block is None:
                block = CacheBlock(path=path, index=index, version=version)
                self._blocks[key] = block
            else:
                block.version = version
                self._blocks.move_to_end(key)
            if dirty:
                if not block.dirty:
                    block.dirty_since = now
                    block.dirty = True
                    self._dirty[path] = self._dirty.get(path, 0) + 1
        while len(self._blocks) > self.capacity:
            _key, victim = self._blocks.popitem(last=False)
            if victim.dirty:
                evicted.append(victim)
                self._cleaned(victim.path)
        return evicted

    # ------------------------------------------------------------------
    def clean(self, blocks: Iterable[CacheBlock]) -> None:
        """Mark blocks clean after a successful write-back."""
        for block in blocks:
            if block.dirty:
                block.dirty = False
                # A block evicted since it was handed out left the
                # count when it left the cache.
                if self._blocks.get((block.path, block.index)) is block:
                    self._cleaned(block.path)

    def _cleaned(self, path: str) -> None:
        left = self._dirty[path] - 1
        if left:
            self._dirty[path] = left
        else:
            del self._dirty[path]

    def drop_file(self, path: str) -> int:
        """Remove every block of ``path`` (after invalidate); returns count."""
        keys = [k for k in self._blocks if k[0] == path]
        for key in keys:
            del self._blocks[key]
        self._dirty.pop(path, None)
        return len(keys)

    def drop_all(self) -> int:
        """Discard everything, dirty blocks included (host crash)."""
        count = len(self._blocks)
        self._blocks.clear()
        self._dirty.clear()
        return count

    def take_dirty(self, path: str) -> List[CacheBlock]:
        """Return and clean all dirty blocks of ``path`` (flush)."""
        dirty = self.dirty_blocks(path)
        self.clean(dirty)
        return dirty

    def aged_dirty(self, now: float, max_age: float) -> Dict[str, List[CacheBlock]]:
        """Dirty blocks older than ``max_age``, grouped by path."""
        by_path: Dict[str, List[CacheBlock]] = {}
        if not self._dirty:  # nothing dirty: no need to walk the LRU
            return by_path
        for block in self._blocks.values():
            if block.dirty and now - block.dirty_since >= max_age:
                by_path.setdefault(block.path, []).append(block)
        return by_path

    def cached_paths(self) -> List[str]:
        return sorted({path for path, _ in self._blocks})
