"""Alias-stress property: random programs over a 4-word heap.

With only four memory words, almost every speculative load sits behind
a same-address or unknown-address store, so this hammers exactly the
paths the big-heap random test rarely reaches: store-buffer
forwarding chains, order-deferral, bypass conflict detection and the
resulting rollbacks.  Golden equivalence must still hold for every
policy combination.
"""

from hypothesis import given, settings, strategies as st

from repro.config import SSTConfig
from repro.core import SSTCore
from repro.isa.builder import ProgramBuilder
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.runner import verify_against_golden
from tests.conftest import small_hierarchy_config

HEAP = 0x100000
HEAP_WORDS = 4
POOL = list(range(1, 7))

mem_op = st.tuples(
    st.sampled_from(["load", "store", "chase"]),
    st.sampled_from(POOL),
    st.sampled_from(POOL),
)
alu_op = st.tuples(
    st.just("alu"),
    st.sampled_from(POOL),
    st.sampled_from(POOL),
    st.integers(-16, 16),
)
atom = st.one_of(mem_op, alu_op)

shape = st.tuples(
    st.lists(st.integers(0, HEAP_WORDS * 8), min_size=6, max_size=6),
    st.lists(st.sampled_from([HEAP + 8 * i for i in range(HEAP_WORDS)]),
             min_size=HEAP_WORDS, max_size=HEAP_WORDS),  # heap of pointers
    st.integers(1, 4),
    st.lists(atom, min_size=4, max_size=20),
)


def build(shape_value):
    reg_init, heap_init, loops, body = shape_value
    builder = ProgramBuilder("alias-stress")
    # The heap stores *pointers into itself*, so a loaded value used as
    # an address ("chase") is always valid — and always aliasing.
    builder.data_words(HEAP, heap_init)
    for index, value in enumerate(reg_init):
        builder.movi(POOL[index], value)
    builder.movi(10, HEAP)
    builder.movi(11, loops)
    builder.label("top")
    for item in body:
        if item[0] == "alu":
            _, rd, rs, imm = item
            builder.addi(rd, rs, imm)
        else:
            kind, rd, base = item
            builder.andi(12, base, 8 * (HEAP_WORDS - 1))
            builder.add(12, 12, 10)
            if kind == "load":
                builder.ld(rd, 12, 0)
            elif kind == "store":
                builder.st(rd, 12, 0)
            else:
                # Chase: load a word, use it as an address (masked back
                # into the heap, because stores may have replaced the
                # original pointer with an arbitrary value).
                builder.ld(13, 12, 0)
                builder.andi(13, 13, 8 * (HEAP_WORDS - 1))
                builder.add(13, 13, 10)
                builder.ld(rd, 13, 0)
    builder.addi(11, 11, -1)
    builder.bne(11, 0, "top")
    builder.halt()
    return builder.build()


CONFIGS = [
    SSTConfig(bypass_unresolved_stores=True),
    SSTConfig(bypass_unresolved_stores=False),
    SSTConfig(checkpoints=1, dq_size=4, sb_size=2),
    SSTConfig(checkpoints=4, dq_size=6, sb_size=3,
              bypass_unresolved_stores=True),
    SSTConfig(checkpoints=2, dq_size=8, sb_size=4),
]


@settings(max_examples=60, deadline=None)
@given(shape)
def test_alias_heavy_programs_match_golden(shape_value):
    program = build(shape_value)
    for index, config in enumerate(CONFIGS):
        hierarchy = MemoryHierarchy(small_hierarchy_config(latency=80))
        core = SSTCore(program, hierarchy, config)
        result = core.run(max_instructions=2_000_000)
        result.core_name = f"sst-variant-{index}"
        verify_against_golden(result, program)


@settings(max_examples=30, deadline=None)
@given(shape)
def test_chase_stores_never_corrupt_memory(shape_value):
    """A focused double-check on the bypass policy alone, because a
    silent wrong-value forward is the scariest failure mode."""
    program = build(shape_value)
    hierarchy = MemoryHierarchy(small_hierarchy_config(latency=200))
    core = SSTCore(program, hierarchy,
                   SSTConfig(bypass_unresolved_stores=True))
    result = core.run(max_instructions=2_000_000)
    verify_against_golden(result, program)
