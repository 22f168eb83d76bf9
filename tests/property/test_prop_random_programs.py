"""The library's strongest correctness property: *random programs end in
the same architectural state on every core*.

The shape strategy, the shape-to-program builder, and the core-variant
matrix now live in :mod:`repro.workloads.fuzz` (the differential
fuzzer CLI drives the same machinery); these tests run them under
hypothesis' ``@given`` so coverage accumulates across CI runs.  Any
bug in deferral, replay ordering, store forwarding, last-writer merge,
rollback, or scout re-execution shows up as a register/memory diff
against the golden interpreter.
"""

from hypothesis import given, settings, strategies as st

from repro.config import SSTConfig
from repro.core import SSTCore
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.runner import verify_against_golden
from repro.workloads.fuzz import (
    CORE_FACTORIES,
    build_program,
    program_shapes,
    small_hierarchy,
)

program_shape = program_shapes()


@settings(max_examples=60, deadline=None)
@given(program_shape)
def test_all_cores_match_golden_on_random_programs(shape):
    program = build_program(shape)
    for name, factory in CORE_FACTORIES:
        hierarchy = MemoryHierarchy(small_hierarchy(latency=60))
        core = factory(program, hierarchy)
        result = core.run(max_instructions=2_000_000)
        result.core_name = name
        verify_against_golden(result, program)


@settings(max_examples=25, deadline=None)
@given(program_shape, st.integers(20, 400))
def test_sst_matches_golden_across_latencies(shape, latency):
    program = build_program(shape)
    hierarchy = MemoryHierarchy(small_hierarchy(latency=latency))
    result = SSTCore(program, hierarchy, SSTConfig()).run(
        max_instructions=2_000_000
    )
    verify_against_golden(result, program)


# Over 200 seeded draws the default configuration never scouted on these
# programs and scout-only scouted on 62, so the second configuration
# carries the quantum property into the scout section.  The third, the
# in-order pipeline, carries it into the CPI stack, whose operand waits
# a quantum boundary can cut in two.
QUANTUM_CONFIGS = (SSTConfig(), SSTConfig(checkpoints=1, scout_only=True),
                   SSTConfig(checkpoints=0))


@settings(max_examples=25, deadline=None)
@given(program_shape, st.integers(13, 500))
def test_quantum_chopped_execution_is_cycle_exact(shape, quantum):
    """advance() in arbitrary quanta must equal one-shot run() exactly
    — the soundness condition of the multicore scheduler.

    Exact means the cycles, the instructions, the whole ``SSTStats``
    (the mode-cycle breakdown and ``ahead_insts`` included) or, with no
    checkpoint, the CPI stack, and the branch statistics.  The
    ``PerfCounters`` are left out: they are not invariant under quanta,
    because a re-entry after a yield counts a fresh fast-forward."""
    program = build_program(shape)
    for config in QUANTUM_CONFIGS:
        hierarchy = MemoryHierarchy(small_hierarchy(latency=60))
        whole = SSTCore(program, hierarchy, config).run(
            max_instructions=2_000_000
        )

        hierarchy = MemoryHierarchy(small_hierarchy(latency=60))
        chopped_core = SSTCore(program, hierarchy, config)
        while not chopped_core.advance(chopped_core.cycle + quantum,
                                       2_000_000):
            pass
        chopped = chopped_core.finalize()

        assert chopped.cycles == whole.cycles
        assert chopped.instructions == whole.instructions
        assert chopped.extra.get("sst") == whole.extra.get("sst")
        assert chopped.extra.get("cpi_stack") == whole.extra.get("cpi_stack")
        assert chopped.extra["branch"] == whole.extra["branch"]
        verify_against_golden(chopped, program)
