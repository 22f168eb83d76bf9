"""The Deferred Queue (DQ) — SST's replacement for a large issue window.

Instructions whose operands are not available (NA) park here *with the
operand values that were available at defer time*; unavailable operands
record the sequence number of their deferred producer instead.  That
captured dataflow is exactly what lets the replay strand re-execute the
slice without renaming: values flow seq→seq through the queue.

The queue is strictly program-ordered and replayed in order, which also
keeps memory operations inside the deferred strand correctly ordered.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Iterator, Optional

from repro.isa.instruction import Instruction
from repro.stats.histogram import Histogram


@dataclasses.dataclass(eq=False)
class DQEntry:
    """One deferred instruction with its captured operands.

    Entries compare by identity: sequence numbers are unique, so
    :meth:`DeferredQueue.remove` finds an entry without comparing its
    fields, and an equal-looking entry that is not queued is not found.
    """

    seq: int
    pc: int
    inst: Instruction
    # rs1/rs2 at defer time: a value if available, else the producer seq.
    rs1_value: Optional[int] = None
    rs1_producer: Optional[int] = None
    rs2_value: Optional[int] = None
    rs2_producer: Optional[int] = None
    # Deferred conditional branch: the direction the front end guessed.
    predicted_taken: Optional[bool] = None
    # Deferred indirect jump: the target the front end guessed (None =
    # no prediction was available and the ahead strand stalled).
    predicted_target: Optional[int] = None
    # True when the instruction was deferred only to preserve memory
    # order behind an unresolved store (its operands are available).
    order_defer: bool = False


@dataclasses.dataclass
class DQStats:
    deferred: int = 0
    replayed: int = 0
    replayed_out_of_order: int = 0
    rejected_full: int = 0


class DeferredQueue:
    """Bounded FIFO of :class:`DQEntry`, replayed from the head."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.stats = DQStats()
        self.occupancy = Histogram("dq_occupancy")
        self._entries: Deque[DQEntry] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def append(self, entry: DQEntry) -> bool:
        """Defer ``entry``; False (and no change) when the queue is full."""
        if self.full:
            self.stats.rejected_full += 1
            return False
        if self._entries and entry.seq <= self._entries[-1].seq:
            raise ValueError("DQ entries must be appended in seq order")
        self._entries.append(entry)
        self.stats.deferred += 1
        self.occupancy.add(len(self._entries))
        return True

    def head(self) -> Optional[DQEntry]:
        return self._entries[0] if self._entries else None

    def remove(self, entry: DQEntry) -> None:
        """Replay an entry out of FIFO position (ROCK's re-deferral:
        not-ready entries are skipped and retried on a later pass).

        Raises ValueError, counting nothing, when ``entry`` is not
        queued."""
        entries = self._entries
        if entries and entries[0] is entry:
            entries.popleft()
        else:
            entries.remove(entry)
            self.stats.replayed_out_of_order += 1
        self.stats.replayed += 1

    def clear(self) -> None:
        self._entries.clear()

    def __iter__(self) -> Iterator[DQEntry]:
        return iter(self._entries)
