"""The premise that makes padding decoded rows with ``r0`` exact.

:mod:`repro.isa.blockcache` pads every row to two source registers with
``r0``, and the cores test and wait on both.  That is exact only while
``r0`` is never not-available and its ready time never passes the
clock.  This property runs every SST variant the differential fuzzer
runs through ``advance()`` in small random quanta and checks both at
every quantum boundary, for the committed register file and, while an
episode is live, for the speculative one.
"""

from hypothesis import given, settings, strategies as st

from repro.core import SSTCore
from repro.isa.registers import ZERO_REG
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.runner import verify_against_golden
from repro.workloads.fuzz import (
    CORE_FACTORIES,
    build_program,
    program_shapes,
    small_hierarchy,
)


@settings(max_examples=30, deadline=None)
@given(program_shapes(), st.integers(1, 64))
def test_zero_register_is_never_late_or_not_available(shape, quantum):
    program = build_program(shape)
    variants = 0
    for name, factory in CORE_FACTORIES:
        core = factory(program, MemoryHierarchy(small_hierarchy(latency=60)))
        if not isinstance(core, SSTCore):
            continue
        variants += 1
        while not core.advance(core.cycle + quantum, 2_000_000):
            assert core._reg_ready[ZERO_REG] <= core.cycle, name
            spec = core.spec
            if spec is not None:
                assert ZERO_REG not in spec.na_producer, name
                assert spec.ready[ZERO_REG] <= core.cycle, name
        assert core._reg_ready[ZERO_REG] <= core.cycle, name
        result = core.finalize()
        result.core_name = name
        verify_against_golden(result, program)
    assert variants, "no SST variant in CORE_FACTORIES"
