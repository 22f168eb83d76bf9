"""Cache model vs. a brute-force LRU reference, plus invariants."""

from hypothesis import given, settings, strategies as st

from repro.config import LINE_BYTES, CacheConfig
from repro.memory.cache import Cache

LINE = LINE_BYTES


class ReferenceLRU:
    """Obviously-correct per-set LRU list model."""

    def __init__(self, sets, assoc):
        self.sets = sets
        self.assoc = assoc
        self._lists = [[] for _ in range(sets)]

    def _set_of(self, line):
        return (line // LINE) % self.sets

    def lookup(self, line):
        entries = self._lists[self._set_of(line)]
        if line in entries:
            entries.remove(line)
            entries.append(line)
            return True
        return False

    def fill(self, line):
        entries = self._lists[self._set_of(line)]
        if line in entries:
            entries.remove(line)
            entries.append(line)
            return
        if len(entries) >= self.assoc:
            entries.pop(0)
        entries.append(line)

    def contains(self, line):
        return line in self._lists[self._set_of(line)]


ops = st.lists(
    st.tuples(st.sampled_from(["access"]),
              st.integers(min_value=0, max_value=63)),
    min_size=1, max_size=200,
)


@settings(max_examples=60)
@given(ops)
def test_cache_matches_reference_lru(operations):
    config = CacheConfig(size_bytes=4 * 2 * LINE, assoc=2)
    cache = Cache(config)
    reference = ReferenceLRU(sets=config.num_sets, assoc=2)
    for _, line_index in operations:
        line = line_index * LINE
        hit = cache.lookup(line)
        ref_hit = reference.lookup(line)
        assert hit == ref_hit
        if not hit:
            cache.fill(line)
            reference.fill(line)
        cache.check_invariants()
    for line_index in range(64):
        line = line_index * LINE
        assert cache.contains(line) == reference.contains(line)


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=1 << 20),
                min_size=1, max_size=100))
def test_fill_then_contains(addresses):
    cache = Cache(CacheConfig(size_bytes=16 * 1024, assoc=4))
    for addr in addresses:
        cache.fill(addr)
        assert cache.contains(addr)
        # The whole line is installed, not the byte address.
        assert cache.contains(addr ^ (LINE - 1))
        cache.check_invariants()


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=300))
def test_occupancy_never_exceeds_assoc(line_indices):
    config = CacheConfig(size_bytes=2 * 2 * LINE, assoc=2)
    cache = Cache(config)
    for index in line_indices:
        cache.fill(index * LINE)
    for count in cache.set_occupancy().values():
        assert count <= config.assoc
