"""The observers must be invisible.

Every machine produces bit-identical results (cycles, instructions,
architectural state) with the sanitizer and the taint tracker attached
and without them, on every workload generator.  An attached observer
selects the instrumented variant of the generated SST loop, so on the
SST machines this pins the instrumented loop against the plain one.

The golden and property suites check correctness against the
interpreter; this one checks the *timing* did not move either."""

import pytest

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
