"""Data TLB model.

ROCK defers on more than cache misses: a load that misses the TLB is a
long-latency event too (hardware table walk), and SST parks its slice
just the same.  The model is a fully-associative LRU array of page
translations; a miss charges a fixed walk latency ahead of the cache
access and is flagged on the :class:`~repro.memory.request.AccessResult`
so the core's defer trigger can see it.

Translation itself is identity (no virtual memory is simulated); only
the *timing and reach* of the TLB matter here.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

from repro.config import TLBConfig


@dataclasses.dataclass
class TLBStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """Fully-associative, true-LRU translation cache."""

    def __init__(self, config: TLBConfig):
        self.config = config
        self.stats = TLBStats()
        self._pages: OrderedDict = OrderedDict()
        self._page_shift = config.page_bytes.bit_length() - 1

    def page_of(self, addr: int) -> int:
        return addr >> self._page_shift

    def access(self, addr: int) -> bool:
        """Translate; returns True on hit.  A miss installs the page."""
        page = self.page_of(addr)
        self.stats.accesses += 1
        if page in self._pages:
            self._pages.move_to_end(page)
            return True
        self.stats.misses += 1
        self._pages[page] = True
        if len(self._pages) > self.config.entries:
            self._pages.popitem(last=False)
        return False

    def contains(self, addr: int) -> bool:
        return self.page_of(addr) in self._pages

    @property
    def occupancy(self) -> int:
        return len(self._pages)
