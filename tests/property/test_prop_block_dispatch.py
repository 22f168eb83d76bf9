"""Property pin for the block dispatch engine: on fuzzer-random, linted
programs, block execution is indistinguishable from per-instruction
stepping (interpreter state + stats), and the instrumented SST loop
(sanitizer and taint tracker attached) times exactly like the plain
one.

Reuses the random-program strategy from
:mod:`tests.property.test_prop_random_programs`."""

import os
from unittest import mock

from hypothesis import given, settings

from repro.analysis.proglint import lint_program
from repro.config import SSTConfig
from repro.core import SSTCore
from repro.isa.interpreter import Interpreter
from repro.memory.hierarchy import MemoryHierarchy
from tests.conftest import small_hierarchy_config
from tests.property.test_prop_random_programs import (
    build_program,
    program_shape,
)


@settings(max_examples=40, deadline=None)
@given(program_shape)
def test_block_interpreter_matches_stepping(shape):
    program = build_program(shape)
    # Lint first (the fuzzer only emits structurally valid code; the
    # diagnostics themselves are advisory) and pin the fingerprint
    # cache: a second lint of an equal program must agree.
    diagnostics = lint_program(program)
    assert lint_program(build_program(shape)) == diagnostics
    blocked = Interpreter(program)
    blocked.run()
    stepped = Interpreter(program)
    while not stepped.halted:
        stepped.step()
    assert blocked.state.regs == stepped.state.regs
    assert blocked.state.memory == stepped.state.memory
    assert blocked.state.pc == stepped.state.pc
    assert blocked.stats == stepped.stats


def _sst_run(program, observed):
    # Hypothesis runs the body many times per pytest call, so the
    # environment is scoped per construction rather than monkeypatched.
    with mock.patch.dict(os.environ):
        for name in ("REPRO_SANITIZE", "REPRO_TAINT"):
            if observed:
                os.environ[name] = "1"
            else:
                os.environ.pop(name, None)
        hierarchy = MemoryHierarchy(small_hierarchy_config(latency=60))
        core = SSTCore(program, hierarchy, SSTConfig())
    assert (core.sanitizer is not None) is observed
    return core.run(max_instructions=2_000_000)


@settings(max_examples=15, deadline=None)
@given(program_shape)
def test_sst_cycles_identical_with_blocks_off(shape):
    """The instrumented SST loop times exactly like the plain one."""
    program = build_program(shape)
    plain = _sst_run(program, observed=False)
    observed = _sst_run(program, observed=True)
    assert observed.cycles == plain.cycles
    assert observed.instructions == plain.instructions
    assert observed.state.regs == plain.state.regs
    assert observed.state.memory == plain.state.memory
