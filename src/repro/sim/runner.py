"""Run + verify: every timing run can be checked against the golden
functional interpreter, which is how the library guarantees that the
speculation machinery (defer, replay, rollback, forwarding, last-writer
merge) is architecturally correct and not just plausible."""

from __future__ import annotations

from typing import Optional

from repro.baselines.core_base import CoreResult, DEFAULT_MAX_INSTRUCTIONS
from repro.config import MachineConfig
from repro.errors import SimulatorInvariantError
from repro.isa.interpreter import run_program
from repro.isa.program import Program
from repro.sim.machine import Machine


def verify_against_golden(result: CoreResult, program: Program) -> None:
    """Raise :class:`SimulatorInvariantError` if the timing run's final
    architectural state differs from the functional interpreter's."""
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
    if result.state.memory != golden.memory:
        raise SimulatorInvariantError(
            f"{result.core_name} memory state diverged on {program.name!r}"
        )


def simulate(config: MachineConfig, program: Program, *,
             verify: bool = False, strict: bool = False,
             max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
             machine: Optional[Machine] = None) -> CoreResult:
    """Build the machine, run the program, optionally golden-check.

    ``strict=True`` runs the static verifier
    (:func:`repro.analysis.proglint.check_program`) over the program
    first and raises :class:`~repro.errors.ProgramLintError` before any
    cycle is simulated if it reports diagnostics.
    """
    if strict:
        from repro.analysis.proglint import check_program

        check_program(program)
    machine = machine or Machine(config)
    result = machine.run(program, max_instructions=max_instructions)
    if verify:
        verify_against_golden(result, program)
    return result
