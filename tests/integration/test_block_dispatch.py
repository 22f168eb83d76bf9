"""The block dispatch engine and its observers must be invisible.

Every machine produces bit-identical results (cycles, instructions,
architectural state) with the sanitizer and the taint tracker attached
and without them, on every workload generator.  An attached observer
selects the instrumented variant of the generated SST loop, so on the
SST machines this pins the instrumented loop against the plain one.
The golden interpreter's block functions are pinned against its
per-instruction ``step()``.

The golden and property suites check correctness against the
interpreter; this one checks the *timing* did not move either."""

import pytest

from repro.isa.interpreter import Interpreter
from repro.sim.runner import simulate
from repro.workloads import full_suite
from tests.integration.test_golden_equivalence import machines

MAX_INSTRUCTIONS = 5_000_000
OBSERVERS = ("REPRO_SANITIZE", "REPRO_TAINT")


def _run(machine, program, monkeypatch, observed):
    for name in OBSERVERS:
        if observed:
            monkeypatch.setenv(name, "1")
        else:
            monkeypatch.delenv(name, raising=False)
    return simulate(machine, program, verify=True,
                    max_instructions=MAX_INSTRUCTIONS)


@pytest.mark.parametrize("program", full_suite("tiny"),
                         ids=lambda program: program.name)
@pytest.mark.parametrize("machine", machines(),
                         ids=lambda machine: machine.name)
def test_block_dispatch_bit_identical(machine, program, monkeypatch):
    plain = _run(machine, program, monkeypatch, observed=False)
    observed = _run(machine, program, monkeypatch, observed=True)
    assert observed.cycles == plain.cycles
    assert observed.instructions == plain.instructions
    assert observed.state.regs == plain.state.regs
    assert observed.state.memory == plain.state.memory


@pytest.mark.parametrize("program", full_suite("tiny"),
                         ids=lambda program: program.name)
def test_interpreter_block_dispatch_bit_identical(program):
    blocked = Interpreter(program)
    blocked.run()
    stepped = Interpreter(program)
    while not stepped.halted:
        stepped.step()
    assert blocked.state.regs == stepped.state.regs
    assert blocked.state.memory == stepped.state.memory
    assert blocked.stats == stepped.stats
