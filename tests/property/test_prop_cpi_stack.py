"""The in-order CPI stack partitions the run: on random programs every
entry is non-negative and the entries sum exactly to the cycle count."""

from hypothesis import given, settings

from repro.baselines.inorder import InOrderCore
from repro.config import InOrderConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.fuzz import build_program, program_shapes, small_hierarchy


@settings(max_examples=40, deadline=None)
@given(program_shapes())
def test_cpi_stack_partitions_cycles(shape):
    program = build_program(shape)
    result = InOrderCore(program, MemoryHierarchy(small_hierarchy()),
                         InOrderConfig()).run(max_instructions=2_000_000)
    stack = result.extra["cpi_stack"]
    assert all(cycles >= 0 for cycles in stack.values()), stack
    assert sum(stack.values()) == result.cycles, stack
