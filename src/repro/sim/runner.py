"""Run + verify: every timing run can be checked against the golden
functional interpreter, which is how the library guarantees that the
speculation machinery (defer, replay, rollback, forwarding, last-writer
merge) is architecturally correct and not just plausible."""

from __future__ import annotations

from repro.baselines.core_base import CoreResult
from repro.config import DEFAULT_MAX_INSTRUCTIONS, MachineConfig
from repro.errors import SimulatorInvariantError
from repro.isa.interpreter import ArchState, run_program
from repro.isa.program import Program
from repro.sim.machine import Machine


def verify_against_golden(result: CoreResult, program: Program) -> None:
    """Raise :class:`SimulatorInvariantError` if the timing run's final
    architectural state differs from the functional interpreter's.

    Registers compare exactly.  A fresh run's memory compares by value
    (a zero-valued word equals an absent one); a cached result keeps no
    image, so its state digest must equal the golden run's, which also
    counts zero-valued words.
    """
    golden = run_program(program)
    if result.state.regs != golden.regs:
        diffs = [
            f"r{index}: core={core_value:#x} golden={golden_value:#x}"
            for index, (core_value, golden_value)
            in enumerate(zip(result.state.regs, golden.regs))
            if core_value != golden_value
        ]
        raise SimulatorInvariantError(
            f"{result.core_name} register state diverged on "
            f"{program.name!r}: " + "; ".join(diffs[:8])
        )
    if isinstance(result.state, ArchState):
        if result.state.memory != golden.memory:
            raise SimulatorInvariantError(
                f"{result.core_name} memory state diverged on "
                f"{program.name!r}"
            )
        return
    cached, expected = result.state.digest(), golden.digest()
    if cached != expected:
        raise SimulatorInvariantError(
            f"{result.core_name} cached state digest diverged on "
            f"{program.name!r}: cached={cached[:12]} "
            f"golden={expected[:12]}"
        )


def simulate(config: MachineConfig, program: Program, *,
             verify: bool = False,
             max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> CoreResult:
    """Build the machine, run the program, optionally golden-check.

    To lint the program first, call
    :func:`repro.analysis.proglint.check_program` on it.
    """
    result = Machine(config).run(program, max_instructions=max_instructions)
    if verify:
        verify_against_golden(result, program)
    return result
