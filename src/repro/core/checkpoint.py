"""Register checkpoints — SST's replacement for a reorder buffer.

A checkpoint is a flash copy of the register state (values + NA bits)
plus the PC at the take-point and the sequence number it opens.  Active
checkpoints partition the speculative instruction stream into *epochs*:
epoch ``i`` covers sequence numbers ``[ckpt[i].start_seq,
ckpt[i+1].start_seq)``.  The oldest checkpoint is always the recovery
point (committed-state consistent); a *boundary* checkpoint taken when
replay begins is what allows the ahead strand to keep running while the
deferred strand replays — the simultaneity the paper is named after.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.regstate import RegSnapshot
from repro.errors import SimulatorInvariantError


@dataclasses.dataclass
class Checkpoint:
    start_seq: int
    pc: int
    regs: RegSnapshot
    taken_cycle: int
    # The sequence number of the load whose deferral caused
    # this checkpoint; boundary checkpoints have None.
    cause_seq: Optional[int] = None


@dataclasses.dataclass
class CheckpointStats:
    taken: int = 0
    boundary_taken: int = 0
    denied_full: int = 0
    peak_live: int = 0


class CheckpointFile:
    """At most ``capacity`` live checkpoints, ordered oldest-first."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.stats = CheckpointStats()
        self._live: List[Checkpoint] = []

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    @property
    def has_free(self) -> bool:
        return len(self._live) < self.capacity

    def take(self, checkpoint: Checkpoint, *, boundary: bool = False) -> None:
        if not self.has_free:
            self.stats.denied_full += 1
            raise SimulatorInvariantError("checkpoint take with no free entry")
        if self._live and checkpoint.start_seq < self._live[-1].start_seq:
            raise SimulatorInvariantError("checkpoints must be taken in order")
        self._live.append(checkpoint)
        self.stats.taken += 1
        if boundary:
            self.stats.boundary_taken += 1
        self.stats.peak_live = max(self.stats.peak_live, len(self._live))

    def oldest(self) -> Checkpoint:
        if not self._live:
            raise SimulatorInvariantError("no live checkpoint")
        return self._live[0]

    def boundary_above(self, seq: int) -> Optional[Checkpoint]:
        """The next checkpoint that closes the epoch containing ``seq``."""
        for checkpoint in self._live[1:]:
            if checkpoint.start_seq > seq:
                return checkpoint
        return None

    def release_oldest(self) -> Checkpoint:
        if not self._live:
            raise SimulatorInvariantError("release with no live checkpoint")
        return self._live.pop(0)

    def clear(self) -> None:
        self._live.clear()

    def live(self) -> List[Checkpoint]:
        return list(self._live)
