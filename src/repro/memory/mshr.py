"""Miss-status holding registers: the structure that bounds a core's
memory-level parallelism.

Each in-flight line miss occupies one entry until its fill completes.
A second access to a pending line *merges* (no new entry, shares the
completion time).  When the file is full, a new miss must wait for the
earliest completion — that serialisation is exactly why bigger windows
(or SST's deferred queue) only help up to the MSHR-limited MLP.

The file keeps the earliest outstanding completion incrementally, so
the common probe "anything in flight?" (:meth:`idle_at`) is O(1), a
full file knows when its first entry frees, and expiry only scans when
a fill has actually completed.  The cores never poll the file for the
next fill: each access returns its own ``ready_cycle``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

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
        # Earliest completion among pending fills (_NEVER when empty).
        self._min_ready = _NEVER

    def _expire(self, cycle: int) -> None:
        """Drop entries whose fill has completed by ``cycle``."""
        pending = self._pending
        if not pending or cycle < self._min_ready:
            return
        expired = [line for line, ready in pending.items() if ready <= cycle]
        for line in expired:
            del pending[line]
        self._min_ready = min(pending.values()) if pending else _NEVER

    def pending_ready(self, line: int, cycle: int) -> Optional[int]:
        """If ``line`` has an in-flight miss at ``cycle``, its ready time."""
        self._expire(cycle)
        return self._pending.get(line)

    def idle_at(self, cycle: int) -> bool:
        """True when no fill is outstanding at ``cycle`` (O(1) probe)."""
        pending = self._pending
        if not pending:
            return True
        if self._min_ready > cycle:
            return False
        self._expire(cycle)
        return not pending

    def occupancy(self, cycle: int) -> int:
        self._expire(cycle)
        return len(self._pending)

    def allocate(self, line: int, cycle: int) -> Tuple[int, bool]:
        """Reserve an entry for a new miss of ``line`` at ``cycle``.

        Returns ``(start_cycle, merged)``: the cycle at which the miss
        can actually start (>= ``cycle`` if the file was full) and
        whether it merged with an existing entry (then ``start_cycle``
        is the existing completion time).

        The caller must follow up with :meth:`complete` to record the
        fill time of a non-merged allocation.
        """
        self._expire(cycle)
        existing = self._pending.get(line)
        if existing is not None:
            self.stats.merges += 1
            return existing, True
        start = cycle
        if len(self._pending) >= self.entries:
            # Wait for the earliest in-flight miss to complete.
            start = self._min_ready
            self.stats.full_stalls += 1
            self.stats.stall_cycles += start - cycle
            self._expire(start)
        self.stats.allocations += 1
        return start, False

    def complete(self, line: int, ready_cycle: int) -> None:
        """Record that the miss of ``line`` fills at ``ready_cycle``."""
        self._pending[line] = ready_cycle
        if ready_cycle < self._min_ready:
            self._min_ready = ready_cycle
        if len(self._pending) > self.stats.peak_occupancy:
            self.stats.peak_occupancy = len(self._pending)
