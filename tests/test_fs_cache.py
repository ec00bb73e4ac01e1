"""Unit tests for the client block cache."""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fs import BlockCache


def make_cache(capacity=8, block=4096):
    return BlockCache(capacity_blocks=capacity, block_size=block)


def test_miss_then_hit_after_install():
    cache = make_cache()
    hit, miss = cache.lookup_range("/a", 1, 0, 8192)
    assert (hit, miss) == (0, 2)
    cache.install_range("/a", 1, 0, 8192, dirty=False, now=0.0)
    hit, miss = cache.lookup_range("/a", 1, 0, 8192)
    assert (hit, miss) == (2, 0)


def test_version_mismatch_counts_as_miss():
    cache = make_cache()
    cache.install_range("/a", 1, 0, 4096, dirty=False, now=0.0)
    hit, miss = cache.lookup_range("/a", 2, 0, 4096)
    assert (hit, miss) == (0, 1)


def test_partial_range_hits():
    cache = make_cache()
    cache.install_range("/a", 1, 0, 4096, dirty=False, now=0.0)
    hit, miss = cache.lookup_range("/a", 1, 0, 12288)
    assert (hit, miss) == (1, 2)


def test_lru_eviction_returns_dirty_victims():
    cache = make_cache(capacity=2)
    cache.install_range("/a", 1, 0, 4096, dirty=True, now=1.0)
    cache.install_range("/b", 1, 0, 4096, dirty=False, now=2.0)
    evicted = cache.install_range("/c", 1, 0, 4096, dirty=False, now=3.0)
    # /a was oldest and dirty.
    assert [(b.path, b.dirty) for b in evicted] == [("/a", True)]
    assert len(cache) == 2


def test_clean_eviction_is_silent():
    cache = make_cache(capacity=1)
    cache.install_range("/a", 1, 0, 4096, dirty=False, now=0.0)
    evicted = cache.install_range("/b", 1, 0, 4096, dirty=False, now=1.0)
    assert evicted == []


def test_recency_updated_by_lookup():
    cache = make_cache(capacity=2)
    cache.install_range("/a", 1, 0, 4096, dirty=False, now=0.0)
    cache.install_range("/b", 1, 0, 4096, dirty=False, now=1.0)
    cache.lookup_range("/a", 1, 0, 4096)  # touch /a
    cache.install_range("/c", 1, 0, 4096, dirty=False, now=2.0)
    assert cache.drop_file("/a") == 1  # /a survived, /b was evicted
    assert cache.drop_file("/b") == 0


def test_dirty_accounting_and_take_dirty():
    cache = make_cache()
    cache.install_range("/a", 1, 0, 8192, dirty=True, now=5.0)
    cache.install_range("/b", 1, 0, 4096, dirty=True, now=5.0)
    assert cache.dirty_bytes("/a") == 8192
    assert cache.dirty_bytes() == 12288
    taken = cache.take_dirty("/a")
    assert len(taken) == 2
    assert cache.dirty_bytes("/a") == 0
    assert cache.dirty_bytes("/b") == 4096


def test_rewriting_dirty_block_keeps_original_dirty_since():
    cache = make_cache()
    cache.install_range("/a", 1, 0, 4096, dirty=True, now=1.0)
    cache.install_range("/a", 1, 0, 4096, dirty=True, now=9.0)
    aged = cache.aged_dirty(now=31.5, max_age=30.0)
    assert "/a" in aged


def test_aged_dirty_filters_young_blocks():
    cache = make_cache()
    cache.install_range("/a", 1, 0, 4096, dirty=True, now=0.0)
    cache.install_range("/b", 1, 0, 4096, dirty=True, now=25.0)
    aged = cache.aged_dirty(now=30.0, max_age=30.0)
    assert list(aged) == ["/a"]


def test_drop_file_removes_all_blocks():
    cache = make_cache()
    cache.install_range("/a", 1, 0, 16384, dirty=True, now=0.0)
    assert cache.drop_file("/a") == 4
    assert len(cache) == 0
    assert cache.dirty_bytes() == 0


def test_capacity_validation():
    with pytest.raises(ValueError):
        BlockCache(capacity_blocks=0, block_size=4096)


def test_cached_paths_sorted_unique():
    cache = make_cache()
    cache.install_range("/b", 1, 0, 8192, dirty=False, now=0.0)
    cache.install_range("/a", 1, 0, 4096, dirty=False, now=0.0)
    assert cache.cached_paths() == ["/a", "/b"]


def test_dirty_count_tracks_every_way_a_block_stops_being_dirty():
    """``dirty_blocks`` answers from per-path counts when nothing of the
    path is dirty; the counts must follow rewrites, eviction, clean, drop_file and drop_all,
    and the scan's order (LRU order) must be what it was."""
    rng = random.Random(14)
    cache = make_cache(capacity=6)
    handed_out = []
    for step in range(600):
        path = rng.choice(["/a", "/b", "/c"])
        action = rng.randrange(8)
        if action < 4:
            handed_out += cache.install_range(
                path, 1, rng.randrange(5) * 4096, rng.choice([1, 8192]),
                dirty=action < 3, now=float(step),
            )
        elif action == 4:
            cache.lookup_range(path, 1, 0, 16384)
        elif action == 5:
            handed_out += cache.take_dirty(path)
        elif action == 6:
            # Cleaning blocks already evicted or cleaned changes nothing.
            cache.clean(handed_out)
            cache.drop_file(path)
        elif rng.random() < 0.2:
            cache.drop_all()
        scan = [b for b in cache._blocks.values() if b.dirty]
        assert cache._dirty == {
            p: n for p in ("/a", "/b", "/c")
            if (n := sum(b.path == p for b in scan))
        }
        assert cache.dirty_blocks() == scan
        assert cache.dirty_blocks(path) == [b for b in scan if b.path == path]


def test_dirty_blocks_does_not_scan_for_a_clean_file():
    cache = make_cache()
    cache.install_range("/a", 1, 0, 16384, dirty=False, now=0.0)
    cache.install_range("/b", 1, 0, 4096, dirty=True, now=0.0)
    scanned = cache.dirty_blocks("/b")

    class Unscannable(type(cache._blocks)):
        def values(self):
            raise AssertionError("scanned the LRU with nothing dirty")

    cache._blocks = Unscannable(cache._blocks)
    # Nothing of /a is dirty, whatever else is.
    assert cache.dirty_bytes("/a") == 0
    assert cache.take_dirty("/a") == []
    cache.clean(scanned)
    assert cache.dirty_blocks() == []


# ----------------------------------------------------------------------
# The per-path dirty counts against a full scan
# ----------------------------------------------------------------------
_PATHS = ("/a", "/b", "/c")
_path = st.sampled_from(_PATHS)
_cache_op = st.one_of(
    # install: path, first block, blocks, dirty (evicts when it overflows)
    st.tuples(st.just("install"), _path, st.integers(0, 5),
              st.integers(1, 4), st.booleans()),
    # clean the blocks handed out so far, from this index on
    st.tuples(st.just("clean"), st.integers(0, 8)),
    st.tuples(st.just("take_dirty"), _path),
    st.tuples(st.just("drop_file"), _path),
    st.tuples(st.just("drop_all")),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.lists(_cache_op, max_size=40))
@example(2, [("install", "/a", 0, 2, True), ("install", "/b", 0, 1, False),
             ("clean", 0), ("install", "/a", 0, 1, True)])
@example(3, [("install", "/a", 0, 3, True), ("take_dirty", "/a"),
             ("install", "/a", 1, 1, True), ("drop_file", "/a"),
             ("clean", 0), ("install", "/b", 0, 4, True), ("drop_all",)])
def test_dirty_counts_equal_a_full_scan(capacity, operations):
    """After any sequence of installs (evicting ones among them),
    cleans of blocks handed out earlier (evicted, taken, or already
    stale), ``take_dirty``, ``drop_file`` and ``drop_all``, the per-path
    dirty counts are what a walk of the whole LRU counts, and so is
    ``dirty_bytes``."""
    block = 4096
    cache = BlockCache(capacity_blocks=capacity, block_size=block)
    handed_out = []
    for step, (kind, *args) in enumerate(operations):
        if kind == "install":
            path, first, blocks, dirty = args
            handed_out += cache.install_range(
                path, 1, first * block, blocks * block, dirty=dirty,
                now=float(step),
            )
        elif kind == "clean":
            cache.clean(handed_out[args[0]:])
        elif kind == "take_dirty":
            handed_out += cache.take_dirty(args[0])
        elif kind == "drop_file":
            cache.drop_file(args[0])
        else:
            cache.drop_all()
        scan = Counter(b.path for b in cache._blocks.values() if b.dirty)
        assert cache._dirty == dict(scan)
        for path in _PATHS:
            assert cache.dirty_bytes(path) == scan[path] * block
        assert cache.dirty_bytes() == sum(scan.values()) * block
