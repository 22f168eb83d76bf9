"""Shared core interface and run-result record.

Every core in the library is *execution driven*: it functionally
executes the program while accounting cycles, so its final
architectural state can be checked against the golden interpreter.
``run()`` returns a :class:`CoreResult` carrying both the timing and the
final state.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Dict, Union

from repro.config import LatencyConfig
from repro.errors import ExecutionError
from repro.isa.interpreter import ArchState, CachedState
from repro.isa.opcodes import OpClass
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy

DEFAULT_MAX_INSTRUCTIONS = 20_000_000


@dataclasses.dataclass
class CoreResult:
    """Outcome of one core run."""

    core_name: str
    program_name: str
    cycles: int
    instructions: int
    # A CachedState (registers, PC and digest, no memory image) when
    # the result came from the result cache.
    state: Union[ArchState, CachedState]
    # Core-specific statistics objects (branch stats, mode breakdown...).
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)
    # Host wall-clock seconds the simulation took (set by the harness).
    # Excluded from equality: two runs of the same point are the same
    # result even though the host timed them differently.
    wall_seconds: float = dataclasses.field(default=0.0, compare=False)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def speedup_over(self, other: "CoreResult") -> float:
        """How much faster this run is than ``other`` (same program)."""
        if self.program_name != other.program_name:
            raise ValueError(
                "speedup comparison across different programs: "
                f"{self.program_name} vs {other.program_name}"
            )
        if self.cycles == 0:
            raise ValueError("zero-cycle run")
        return other.cycles / self.cycles


class Core(abc.ABC):
    """A timing core bound to one program and one memory hierarchy."""

    name = "core"

    def __init__(self, program: Program, hierarchy: MemoryHierarchy):
        program.validate()
        self.program = program
        self.hierarchy = hierarchy
        self.state = ArchState.fresh(program)

    @abc.abstractmethod
    def run(self, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> CoreResult:
        """Execute the program to HALT, returning timing + final state."""

    # ------------------------------------------------------------------
    # Helpers shared by the concrete cores.
    # ------------------------------------------------------------------

    def op_latency(self, op_class: OpClass, latencies: LatencyConfig) -> int:
        if op_class is OpClass.MUL:
            return latencies.mul
        if op_class is OpClass.DIV:
            return latencies.div
        return latencies.alu

    def _check_pc(self, pc: int) -> None:
        if not 0 <= pc < len(self.program):
            raise ExecutionError(f"PC {pc} outside program")

    def _check_budget(self, executed: int, budget: int) -> None:
        if executed >= budget:
            raise ExecutionError(
                f"{self.name}: exceeded {budget} instructions without HALT "
                f"(program {self.program.name!r})"
            )
