"""Speculative register state: NA bits and last-writer tags.

This is the structure that lets SST drop register renaming.  Each
architectural register carries:

* a value (meaningful only when the register is *available*),
* an **NA bit**, here stored as the sequence number of the deferred
  producer that will eventually supply the value (``None`` = available),
* a **last-writer tag** — the sequence number of the youngest
  program-order writer, which is what merges replayed results correctly
  (a replayed write only lands architecturally if it is still the
  youngest writer: the paper's NT/W bits), and
* a readiness cycle for ordinary stall-on-use timing of available
  values.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.isa.registers import REG_COUNT, ZERO_REG


@dataclasses.dataclass
class RegSnapshot:
    """Frozen copy used by checkpoints and commit materialisation."""

    values: List[int]
    na_producer: Dict[int, int]  # reg -> producer seq for NA regs


class SpeculativeRegisters:
    """The working (ahead-strand) register file during speculation."""

    def __init__(self, committed_values: List[int]):
        self.values: List[int] = list(committed_values)
        # reg index -> seq of the deferred producer; absent = available.
        self.na_producer: Dict[int, int] = {}
        self.ready: List[int] = [0] * REG_COUNT
        self.last_writer: List[int] = [0] * REG_COUNT

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------

    def is_na(self, reg: int) -> bool:
        return reg in self.na_producer

    def producer_of(self, reg: int) -> Optional[int]:
        return self.na_producer.get(reg)

    def read(self, reg: int) -> int:
        """Value of an *available* register (caller checks NA first)."""
        return 0 if reg == ZERO_REG else self.values[reg]

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------

    def write_available(self, reg: int, value: int, seq: int,
                        ready_cycle: int) -> None:
        """An ahead-strand instruction produced ``value`` for ``reg``."""
        if reg == ZERO_REG:
            return
        self.values[reg] = value
        self.na_producer.pop(reg, None)
        self.last_writer[reg] = seq
        self.ready[reg] = ready_cycle

    def write_na(self, reg: int, producer_seq: int) -> None:
        """A deferred instruction will produce ``reg`` later."""
        if reg == ZERO_REG:
            return
        self.na_producer[reg] = producer_seq
        self.last_writer[reg] = producer_seq

    def apply_replayed(self, reg: int, value: int, seq: int,
                       ready_cycle: int) -> bool:
        """A replayed deferred write; lands only if still youngest.

        Returns True if it updated the architecturally visible value.
        """
        if reg == ZERO_REG:
            return False
        if self.last_writer[reg] != seq:
            return False
        self.values[reg] = value
        self.na_producer.pop(reg, None)
        self.ready[reg] = max(self.ready[reg], ready_cycle)
        return True

    # ------------------------------------------------------------------
    # Snapshots (checkpoints / commit).
    # ------------------------------------------------------------------

    def snapshot(self) -> RegSnapshot:
        return RegSnapshot(values=list(self.values),
                           na_producer=dict(self.na_producer))
