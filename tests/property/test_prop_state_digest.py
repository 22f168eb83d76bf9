"""Every core leaves exactly the golden run's memory words, zero-valued
ones included.

A fresh run's golden check compares memory with ``SparseMemory.__eq__``,
which treats a zero-valued word as absent.  A cached result keeps only
the state digest, which counts every word, so its golden check is
stricter: it holds only while each core writes exactly the words the
golden interpreter writes.  The fuzzer's heap images hold zero-valued
words, so a core that dropped or added one would fail here.

Every run starts from a copy of the program's one data image.  Each
core runs twice: a run that wrote through to the image would change it
and hand the second run the first run's final memory.

The digest covers the registers and only the words a run changed or
added relative to that image.  For runs of one program it must decide
exactly as the full-state semantic ID, which renders every word, does.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.isa.interpreter import run_program
from repro.memory.hierarchy import MemoryHierarchy
from tests.conftest import full_state_id
from repro.workloads.fuzz import (
    CORE_FACTORIES,
    MAX_INSTRUCTIONS,
    build_program,
    program_shapes,
    small_hierarchy,
)

# SST, in-order, and the OoO core with ROB 32, IQ 16 and LSQ 16.
CORES = [(name, dict(CORE_FACTORIES)[name])
         for name in ("sst", "inorder", "ooo")]


@seed(12345)
@settings(max_examples=200, deadline=None)
@given(program_shapes())
def test_every_core_leaves_the_golden_digest(shape):
    program = build_program(shape)
    image = dict(program.image)
    golden = run_program(program).digest()
    for name, factory in CORES:
        runs = []
        for _ in range(2):
            core = factory(program, MemoryHierarchy(small_hierarchy()))
            result = core.run(max_instructions=MAX_INSTRUCTIONS)
            assert program.image == image, name
            runs.append((result.cycles, result.instructions,
                         result.state.digest()))
        assert runs[0][2] == golden, name
        assert runs[1] == runs[0], name


@seed(12345)
@settings(max_examples=200, deadline=None)
@given(program_shapes(), st.integers(min_value=0),
       st.sampled_from([None, 0, 1]))
def test_digest_agrees_with_the_full_state_id_on_every_core(shape, pick,
                                                            value):
    program = build_program(shape)
    golden = run_program(program)
    # One more write to the golden state, to an image word or to a new
    # address, so that some cores' states equal it and some do not.
    # None writes the word's own value back, which changes nothing
    # unless the address is new: there it is a zero the image lacks.
    addresses = sorted(program.image) + [max(program.image, default=0) + 8]
    addr = addresses[pick % len(addresses)]
    golden.memory.write(
        addr, golden.memory.read(addr) if value is None else value)
    golden_ids = (golden.digest(), full_state_id(golden))
    for name, factory in CORE_FACTORIES:
        core = factory(program, MemoryHierarchy(small_hierarchy()))
        state = core.run(max_instructions=MAX_INSTRUCTIONS).state
        same_digest = state.digest() == golden_ids[0]
        assert same_digest == (full_state_id(state) == golden_ids[1]), name
