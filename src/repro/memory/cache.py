"""Set-associative tag store with true-LRU replacement.

The cache models *tags only* — data always lives in the architectural
:class:`~repro.memory.sparse_memory.SparseMemory`; what the timing model
needs from a cache is hit/miss decisions, replacement behaviour, and
dirty-line writeback counts.  Write policy is write-back,
write-allocate.

Per-line state is a small int bitmask (the dirty bit) rather than a
dict: the lookup path runs once per simulated memory access across
every core model, so it stays allocation-free.

Every operation takes a byte address and aligns it itself, with one
inline shift (``line_shift``); the hierarchy hands each access's
already-aligned line to every level, so no operation calls another to
align or to find its set.  The memory hierarchy's miss walk
(:meth:`repro.memory.hierarchy.MemoryHierarchy._miss`) calls these
operations; it keeps no copy of them.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.config import LINE_BYTES, CacheConfig
from repro.errors import SimulatorInvariantError

# Line-flag bits.
DIRTY = 1


@dataclasses.dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of tags.  Addresses are byte addresses."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.stats = CacheStats()
        # A byte address's line is ``addr >> line_shift << line_shift``.
        self.line_shift = LINE_BYTES.bit_length() - 1
        self._set_mask = config.num_sets - 1
        # set index -> OrderedDict(line -> flag bits); LRU at the front.
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(config.num_sets)
        ]

    # ------------------------------------------------------------------
    # Operations.
    # ------------------------------------------------------------------

    def lookup(self, addr: int, *, count: bool = True) -> bool:
        """Hit test; moves the line to MRU on a hit.

        ``count=False`` is a prefetch's probe: it counts nothing.
        """
        shift = self.line_shift
        index = addr >> shift
        line = index << shift
        cache_set = self._sets[index & self._set_mask]
        if line not in cache_set:
            if count:
                stats = self.stats
                stats.accesses += 1
                stats.misses += 1
            return False
        if count:
            stats = self.stats
            stats.accesses += 1
            stats.hits += 1
        cache_set.move_to_end(line)
        return True

    def contains(self, addr: int) -> bool:
        """Hit test with no side effects (no LRU update, no stats)."""
        shift = self.line_shift
        index = addr >> shift
        return index << shift in self._sets[index & self._set_mask]

    def fill(self, addr: int, *,
             writeback: Optional[Cache] = None) -> Optional[int]:
        """Install a line; returns the evicted dirty line address (for a
        writeback) or None.  Filling a present line refreshes LRU.

        A dirty victim is written back into ``writeback`` (the next
        level, tag-only): if that cache holds the line, it is marked
        dirty there.
        """
        shift = self.line_shift
        index = addr >> shift
        line = index << shift
        cache_set = self._sets[index & self._set_mask]
        if line in cache_set:
            cache_set.move_to_end(line)
            return None
        victim_writeback = None
        if len(cache_set) >= self.config.assoc:
            victim, flags = cache_set.popitem(last=False)
            stats = self.stats
            stats.evictions += 1
            if flags & DIRTY:
                stats.writebacks += 1
                victim_writeback = victim
                if writeback is not None and writeback.contains(victim):
                    writeback.mark_dirty(victim)
        cache_set[line] = 0
        return victim_writeback

    def mark_dirty(self, addr: int) -> None:
        shift = self.line_shift
        index = addr >> shift
        line = index << shift
        cache_set = self._sets[index & self._set_mask]
        flags = cache_set.get(line)
        if flags is None:
            raise SimulatorInvariantError(
                f"{self.name}: mark_dirty on absent line {line:#x}"
            )
        cache_set[line] = flags | DIRTY

    # ------------------------------------------------------------------
    # Introspection (tests, invariants).
    # ------------------------------------------------------------------

    def set_occupancy(self) -> Dict[int, int]:
        return {index: len(s) for index, s in enumerate(self._sets) if s}

    def check_invariants(self) -> None:
        """Structural invariants; raises on violation (used by tests)."""
        seen = set()
        for index, cache_set in enumerate(self._sets):
            if len(cache_set) > self.config.assoc:
                raise SimulatorInvariantError(
                    f"{self.name}: set {index} over-full"
                )
            for line in cache_set:
                if line in seen:
                    raise SimulatorInvariantError(
                        f"{self.name}: line {line:#x} in two sets"
                    )
                seen.add(line)
                expected = (line >> self.line_shift) & self._set_mask
                if expected != index:
                    raise SimulatorInvariantError(
                        f"{self.name}: line {line:#x} in wrong set {index}"
                    )
