"""Access kinds and results exchanged between cores and the memory
hierarchy."""

from __future__ import annotations

import enum
from typing import NamedTuple


class AccessType(enum.Enum):
    LOAD = "load"
    STORE = "store"


class HitLevel(enum.Enum):
    """Where an access was satisfied."""

    L1 = "l1"
    L2 = "l2"
    DRAM = "dram"
    # Merged into an already-outstanding miss at that level's MSHR.
    MERGE_L1 = "merge_l1"
    MERGE_L2 = "merge_l2"


class AccessResult(NamedTuple):
    """Timing outcome of one access (immutable).

    ``ready_cycle`` is when the data is available to dependents (for
    stores: when the line is owned and the write is globally done).
    ``tlb_miss`` marks an access whose translation walked the page
    table first — a deferral trigger of its own in the SST core.

    A ``NamedTuple`` rather than a frozen dataclass: every load, store,
    prefetch and fetch builds one, and a tuple is built without the
    per-field ``object.__setattr__`` a frozen dataclass pays.  The
    hierarchy builds it with ``tuple.__new__`` and every field given,
    because the class's generated ``__new__`` is a Python function, so
    a new field must be added at those call sites too.
    """

    ready_cycle: int
    level: HitLevel
    tlb_miss: bool = False

    @property
    def l1_hit(self) -> bool:
        return self.level is HitLevel.L1

    @property
    def went_to_dram(self) -> bool:
        return self.level in (HitLevel.DRAM, HitLevel.MERGE_L2)
