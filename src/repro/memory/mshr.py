"""Miss-status holding registers: the structure that bounds a core's
memory-level parallelism.

Each in-flight line miss occupies one entry until its fill completes.
A second access to a pending line *merges* (no new entry, shares the
completion time).  When the file is full, a new miss must wait for the
earliest completion — that serialisation is exactly why bigger windows
(or SST's deferred queue) only help up to the MSHR-limited MLP.

The file keeps the earliest outstanding completion incrementally, so
its one probe, :meth:`MSHRFile.in_flight`, is O(1) unless a fill has
completed since the last probe, and a full file knows when its first
entry frees.  That probe answers both questions an L1 hit asks — is
anything in flight (the hierarchy's fast path), and is this line —
from one expiry.  Pending fills also sit in a heap by completion time,
so an expiry pops only the fills that have completed.  The cores never
poll the file for the next fill: each access returns its own
``ready_cycle``.
"""

from __future__ import annotations

import dataclasses
from heapq import heappop, heappush
from typing import Dict, List, Tuple

# Sentinel "no outstanding completion" (compares greater than any cycle).
_NEVER = 1 << 62


@dataclasses.dataclass
class MSHRStats:
    allocations: int = 0
    merges: int = 0
    full_stalls: int = 0
    # Sum of cycles new misses spent waiting for a free entry.
    stall_cycles: int = 0
    peak_occupancy: int = 0


class MSHRFile:
    """Fixed number of outstanding line misses."""

    def __init__(self, entries: int, name: str = "mshr"):
        self.entries = entries
        self.name = name
        self.stats = MSHRStats()
        # line address -> fill-complete cycle.
        self._pending: Dict[int, int] = {}
        # (fill-complete cycle, line) of every pending fill, a heap.
        self._heap: List[Tuple[int, int]] = []
        # Earliest completion among pending fills (_NEVER when empty).
        self._min_ready = _NEVER

    def _expire(self, cycle: int) -> None:
        """Drop entries whose fill has completed by ``cycle``; callers
        only call it once ``cycle`` has reached the earliest one."""
        pending = self._pending
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            del pending[heappop(heap)[1]]
        self._min_ready = heap[0][0] if heap else _NEVER

    def in_flight(self, cycle: int) -> Dict[int, int]:
        """The fills outstanding at ``cycle``, as ``{line: ready_cycle}``.

        Completed entries expire first.  An empty mapping means the
        file is idle at ``cycle``.  The mapping is the file's own, not a
        copy (every L1 hit asks): read it, never change it.
        """
        if cycle >= self._min_ready:
            self._expire(cycle)
        return self._pending

    def allocate(self, line: int, cycle: int) -> Tuple[int, bool]:
        """Reserve an entry for a new miss of ``line`` at ``cycle``.

        Returns ``(start_cycle, merged)``: the cycle at which the miss
        can actually start (>= ``cycle`` if the file was full) and
        whether it merged with an existing entry (then ``start_cycle``
        is the existing completion time).

        The caller must follow up with :meth:`complete` to record the
        fill time of a non-merged allocation.
        """
        pending = self.in_flight(cycle)
        stats = self.stats
        existing = pending.get(line)
        if existing is not None:
            stats.merges += 1
            return existing, True
        start = cycle
        if len(pending) >= self.entries:
            # Wait for the earliest in-flight miss to complete.
            start = self._min_ready
            stats.full_stalls += 1
            stats.stall_cycles += start - cycle
            self._expire(start)
        stats.allocations += 1
        return start, False

    def complete(self, line: int, ready_cycle: int) -> None:
        """Record that the miss of ``line`` fills at ``ready_cycle``.

        ``line`` is not pending: :meth:`allocate` merges a miss of a
        pending line, so only a non-merged allocation completes, and the
        heap holds exactly one entry per pending fill.
        """
        pending = self._pending
        pending[line] = ready_cycle
        heappush(self._heap, (ready_cycle, line))
        if ready_cycle < self._min_ready:
            self._min_ready = ready_cycle
        if len(pending) > self.stats.peak_occupancy:
            self.stats.peak_occupancy = len(pending)
