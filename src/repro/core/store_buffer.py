"""The speculative store buffer — SST's replacement for a memory
disambiguation unit.

Speculative stores are buffered here (seq-ordered) until the covering
checkpoint commits, at which point entries drain to the cache.  Loads
forward from the youngest same-address entry older than themselves.

*Unresolved* entries are placeholders for deferred stores (address
and/or data NA); they are what makes memory speculation interesting:

* conservative policy: a load behind an unknown-address store defers;
* bypass policy: the load speculates and the store's replay checks for
  a conflict (:meth:`StoreBuffer.blocks_load` and
  :meth:`StoreBuffer.any_unresolved_below` answer these queries).
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import List, Optional, Tuple

from repro.errors import SimulatorInvariantError
from repro.stats.histogram import Histogram


@dataclasses.dataclass
class SBEntry:
    seq: int
    addr: Optional[int]  # None until the address is known
    value: Optional[int]  # None until the data is known
    resolved: bool


@dataclasses.dataclass
class SBStats:
    appends: int = 0
    forwards: int = 0
    rejected_full: int = 0
    drained: int = 0


class StoreBuffer:
    """Bounded, seq-ordered speculative store buffer."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.stats = SBStats()
        self.occupancy = Histogram("sb_occupancy")
        self._entries: List[SBEntry] = []
        self._seqs: List[int] = []  # parallel key list for bisect

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    # ------------------------------------------------------------------
    # Appends and resolution.
    # ------------------------------------------------------------------

    def _insert(self, entry: SBEntry) -> bool:
        if self.full:
            self.stats.rejected_full += 1
            return False
        at = bisect.bisect_left(self._seqs, entry.seq)
        if at < len(self._seqs) and self._seqs[at] == entry.seq:
            raise SimulatorInvariantError(f"duplicate SB seq {entry.seq}")
        self._seqs.insert(at, entry.seq)
        self._entries.insert(at, entry)
        self.stats.appends += 1
        self.occupancy.add(len(self._entries))
        return True

    def append_resolved(self, seq: int, addr: int, value: int) -> bool:
        return self._insert(SBEntry(seq, addr, value, resolved=True))

    def append_unresolved(self, seq: int, addr: Optional[int]) -> bool:
        return self._insert(SBEntry(seq, addr, None, resolved=False))

    def resolve(self, seq: int, addr: int, value: int) -> None:
        """A deferred store's replay supplies its address and data."""
        at = bisect.bisect_left(self._seqs, seq)
        if at >= len(self._seqs) or self._seqs[at] != seq:
            raise SimulatorInvariantError(f"resolve of unknown SB seq {seq}")
        entry = self._entries[at]
        if entry.resolved:
            raise SimulatorInvariantError(f"double resolve of SB seq {seq}")
        entry.addr = addr
        entry.value = value
        entry.resolved = True

    # ------------------------------------------------------------------
    # Unresolved-store queries.
    # ------------------------------------------------------------------

    def blocks_load(self, addr: int, load_seq: int,
                    conservative: bool) -> bool:
        """Must a load of ``addr`` at ``load_seq`` defer?

        A same-address unresolved store always blocks (its data cannot
        be forwarded).  An unknown-address unresolved store blocks only
        under the conservative policy; the bypass policy speculates past
        it and validates at the store's replay.

        Walks the seq-ordered entries and stops at the first one at or
        above ``load_seq``: it costs one step per older entry.
        """
        for entry in self._entries:
            if entry.seq >= load_seq:
                return False
            if entry.resolved:
                continue
            if entry.addr is None:
                if conservative:
                    return True
            elif entry.addr == addr:
                return True
        return False

    def any_unresolved_below(self, seq: int) -> bool:
        """Is any entry older than ``seq`` still unresolved?

        Walks the seq-ordered entries and stops at the first one at or
        above ``seq`` or the first unresolved one: it costs at most one
        step per older entry.
        """
        for entry in self._entries:
            if entry.seq >= seq:
                return False
            if not entry.resolved:
                return True
        return False

    # ------------------------------------------------------------------
    # Forwarding.
    # ------------------------------------------------------------------

    def forward(self, addr: int, before_seq: int) -> Optional[Tuple[int, int]]:
        """Youngest resolved same-address entry older than ``before_seq``.

        Returns ``(value, entry_seq)`` or None.  The caller is expected
        to have checked :meth:`blocks_load` first, so a same-address
        unresolved entry cannot sit between the match and the load.
        """
        limit = bisect.bisect_left(self._seqs, before_seq)
        for at in range(limit - 1, -1, -1):
            entry = self._entries[at]
            if entry.resolved and entry.addr == addr:
                self.stats.forwards += 1
                return entry.value, entry.seq  # type: ignore[return-value]
        return None

    def peek_forward(self, addr: int,
                     before_seq: int) -> Optional[Tuple[int, int]]:
        """:meth:`forward` without the stats side effect, for
        observational instrumentation (the taint tracker) that must not
        perturb simulation statistics."""
        limit = bisect.bisect_left(self._seqs, before_seq)
        for at in range(limit - 1, -1, -1):
            entry = self._entries[at]
            if entry.resolved and entry.addr == addr:
                return entry.value, entry.seq  # type: ignore[return-value]
        return None

    # ------------------------------------------------------------------
    # Commit / rollback.
    # ------------------------------------------------------------------

    def drain_below(self, seq: int) -> List[SBEntry]:
        """Remove and return all entries older than ``seq`` (commit).

        Every drained entry must be resolved — the commit condition
        guarantees it; an unresolved one is a simulator bug.
        """
        limit = bisect.bisect_left(self._seqs, seq)
        drained = self._entries[:limit]
        for entry in drained:
            if not entry.resolved:
                raise SimulatorInvariantError(
                    f"committing unresolved store seq {entry.seq}"
                )
        del self._entries[:limit]
        del self._seqs[:limit]
        self.stats.drained += len(drained)
        return drained

    def drain_all(self) -> List[SBEntry]:
        return self.drain_below(self._seqs[-1] + 1 if self._seqs else 0)

    def clear(self) -> None:
        self._entries.clear()
        self._seqs.clear()

    def entries(self) -> List[SBEntry]:
        return list(self._entries)
