"""Property pin for the instrumented SST loop: on fuzzer-random
programs, the variant of the generated speculative loop that an
attached observer selects (sanitizer and taint tracker) times exactly
like the plain one and leaves the same architectural state.

Reuses the random-program strategy from
:mod:`tests.property.test_prop_random_programs`."""

import os
from unittest import mock

from hypothesis import given, settings

from repro.config import SSTConfig
from repro.core import SSTCore
from repro.memory.hierarchy import MemoryHierarchy
from tests.conftest import small_hierarchy_config
from tests.property.test_prop_random_programs import (
    build_program,
    program_shape,
)


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
