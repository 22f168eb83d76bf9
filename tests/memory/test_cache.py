"""Cache tag-store behaviour: hits, LRU, eviction, dirty writebacks."""

import random

import pytest

from repro.config import CacheConfig
from repro.errors import ConfigError, SimulatorInvariantError
from repro.memory.cache import Cache


def tiny_cache(assoc=2, sets=2, line=64):
    return Cache(CacheConfig(size_bytes=assoc * sets * line, assoc=assoc,
                             line_bytes=line), name="test")


def test_cold_miss_then_hit():
    cache = tiny_cache()
    assert not cache.lookup(0)
    cache.fill(0)
    assert cache.lookup(0)
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1


def test_same_line_offsets_hit():
    cache = tiny_cache()
    cache.fill(0)
    assert cache.lookup(8)
    assert cache.lookup(56)


def test_lru_eviction_order():
    cache = tiny_cache(assoc=2, sets=1)
    cache.fill(0x000)
    cache.fill(0x040)
    cache.lookup(0x000)  # make line 0 MRU
    cache.fill(0x080)  # evicts 0x040
    assert cache.contains(0x000)
    assert not cache.contains(0x040)
    assert cache.contains(0x080)


def test_dirty_eviction_reports_writeback():
    cache = tiny_cache(assoc=1, sets=1)
    cache.fill(0x000)
    cache.mark_dirty(0x000)
    victim = cache.fill(0x040)
    assert victim == 0x000
    assert cache.stats.writebacks == 1


def test_clean_eviction_reports_none():
    cache = tiny_cache(assoc=1, sets=1)
    cache.fill(0x000)
    assert cache.fill(0x040) is None
    assert cache.stats.evictions == 1


def test_mark_dirty_absent_line_is_a_bug():
    cache = tiny_cache()
    with pytest.raises(SimulatorInvariantError):
        cache.mark_dirty(0x1000)


def test_set_mapping_separates_lines():
    cache = tiny_cache(assoc=1, sets=2)
    cache.fill(0x000)  # set 0
    cache.fill(0x040)  # set 1
    assert cache.contains(0x000) and cache.contains(0x040)


def test_refill_present_line_is_lru_refresh_not_eviction():
    cache = tiny_cache(assoc=2, sets=1)
    cache.fill(0x000)
    cache.fill(0x040)
    cache.fill(0x000)  # refresh
    cache.fill(0x080)  # should evict 0x040 (LRU), not 0x000
    assert cache.contains(0x000)


def test_lru_hits_match_stack_distances():
    """Stack-distance identity over a long random stream: an N-line
    fully-associative cache hits exactly the references whose LRU stack
    distance (distinct lines touched since the last use) is below N."""
    capacity, line_bytes = 64, 64
    rng = random.Random(2009)
    lines = [rng.randrange(4 * capacity) for _ in range(5000)]
    stack = []  # most recently used last
    expected_hits = 0
    for line in lines:
        if line in stack:
            distance = len(stack) - 1 - stack.index(line)
            expected_hits += distance < capacity
            stack.remove(line)
        stack.append(line)
    assert 0 < expected_hits < len(lines)

    cache = Cache(CacheConfig(size_bytes=capacity * line_bytes,
                              assoc=capacity, line_bytes=line_bytes),
                  name="lru")
    for line in lines:
        if not cache.lookup(line * line_bytes):
            cache.fill(line * line_bytes)
    assert cache.stats.hits == expected_hits


def test_invariants_hold_after_traffic():
    cache = tiny_cache(assoc=2, sets=2)
    for addr in range(0, 0x1000, 64):
        cache.lookup(addr)
        cache.fill(addr)
    cache.check_invariants()


def test_miss_rate():
    cache = tiny_cache()
    cache.lookup(0)
    cache.fill(0)
    cache.lookup(0)
    assert cache.stats.miss_rate == pytest.approx(0.5)


def test_config_validation():
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=100, assoc=3, line_bytes=64)
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=4096, assoc=1, line_bytes=48)
