"""Golden-model interpreter semantics."""

import pytest

from repro.errors import ExecutionError
from repro.isa.assembler import assemble
from repro.isa.interpreter import ArchState, Interpreter, run_program
from repro.isa.program import Program
from repro.regress.semid import semantic_id


def test_arithmetic_loop(countdown_program):
    state = run_program(countdown_program)
    assert state.regs[2] == sum(range(1, 11))
    assert state.regs[1] == 0


def test_zero_register_ignores_writes():
    state = run_program(assemble("""
        movi r0, 99
        addi r1, r0, 1
        halt
    """))
    assert state.regs[0] == 0
    assert state.regs[1] == 1


def test_loads_and_stores():
    state = run_program(assemble("""
        .data 0x100: 41
        movi r1, 0x100
        ld   r2, 0(r1)
        addi r2, r2, 1
        st   r2, 8(r1)
        halt
    """))
    assert state.memory.read(0x108) == 42


def test_uninitialised_memory_reads_zero():
    state = run_program(assemble("""
        movi r1, 0x500
        ld   r2, 0(r1)
        halt
    """))
    assert state.regs[2] == 0


def test_call_and_return():
    state = run_program(assemble("""
        movi r1, 5
        jal  ra, double
        addi r2, r1, 0
        halt
    double:
        add  r1, r1, r1
        jalr r0, ra, 0
    """))
    assert state.regs[2] == 10


def test_misaligned_load_raises():
    program = assemble("""
        movi r1, 3
        ld   r2, 0(r1)
        halt
    """)
    with pytest.raises(ExecutionError, match="misaligned"):
        run_program(program)
    # run() stops exactly where step() does: the PC stays on the
    # faulting load, which counts as an instruction but not as a load.
    interpreter = Interpreter(assemble("""
        movi r1, 0x1003
        addi r2, r0, 5
        ld   r3, 0(r1)
        addi r4, r0, 7
        halt
    """))
    with pytest.raises(ExecutionError, match="misaligned"):
        interpreter.run()
    assert interpreter.state.pc == 2
    assert interpreter.stats.instructions == 3
    assert interpreter.stats.loads == 0


def test_runaway_loop_raises():
    program = assemble("""
    forever:
        jal r0, forever
        halt
    """)
    with pytest.raises(ExecutionError, match="without HALT"):
        run_program(program, max_steps=1000)


def test_indirect_jump_out_of_range_raises():
    program = assemble("""
        movi r1, 4096
        jalr r0, r1, 0
        halt
    """)
    with pytest.raises(ExecutionError, match="outside program"):
        run_program(program)


def test_stats_collected(countdown_program):
    interp = Interpreter(countdown_program)
    interp.run()
    stats = interp.stats
    assert stats.instructions == 2 + 3 * 10 + 1
    assert stats.branches == 10
    assert stats.branches_taken == 9


def test_step_after_halt_is_noop(countdown_program):
    interp = Interpreter(countdown_program)
    interp.run()
    before = interp.stats.instructions
    interp.step()
    assert interp.stats.instructions == before


def test_membar_prefetch_nop_have_no_arch_effect():
    state = run_program(assemble("""
        movi r1, 0x100
        nop
        membar
        prefetch 0(r1)
        halt
    """))
    assert state.regs[1] == 0x100
    assert len(state.memory) == 0


def test_same_architectural_state():
    a = ArchState.fresh()
    b = ArchState.fresh()
    assert a.same_architectural_state(b)
    a.write_reg(3, 7)
    assert not a.same_architectural_state(b)


def test_digest_counts_zero_valued_words():
    plain = ArchState.fresh()
    padded = ArchState.fresh()
    for state in (plain, padded):
        state.memory.write(0x100, 5)
    padded.memory.write(0x108, 0)
    # Memory equality treats a zero-valued word as absent...
    assert plain.memory == padded.memory
    assert plain.same_architectural_state(padded)
    # ...and the digest, which is all a cached result keeps, does not.
    assert plain.digest() != padded.digest()


# -- the digest covers the words a run changed ------------------------------

IMAGED = Program(assemble("halt").instructions,
                 image={0x100: 5, 0x108: 0, 0x110: 7}, name="imaged")


def test_digest_renders_only_the_changed_words():
    state = ArchState.fresh(IMAGED)
    state.memory.write(0x108, 9)
    state.memory.write(0x200, 1)
    state.write_reg(4, 3)
    regs = state.regs
    assert state.digest() == semantic_id(
        {"regs": regs, "memory": [[0x108, 9], [0x200, 1]]})
    assert ArchState.fresh(IMAGED).digest() == semantic_id(
        {"regs": [0] * len(regs), "memory": []})


def test_a_zero_written_to_a_new_address_changes_the_digest():
    untouched, zeroed = ArchState.fresh(IMAGED), ArchState.fresh(IMAGED)
    zeroed.memory.write(0x300, 0)
    assert untouched.memory == zeroed.memory
    assert untouched.digest() != zeroed.digest()


def test_writing_the_image_value_back_keeps_the_digest():
    untouched, restored = ArchState.fresh(IMAGED), ArchState.fresh(IMAGED)
    restored.memory.write(0x100, 6)
    restored.memory.write(0x108, 1)
    assert restored.digest() != untouched.digest()
    restored.memory.write(0x100, 5)
    restored.memory.write(0x108, 0)
    assert restored.digest() == untouched.digest()


def test_write_order_does_not_change_the_digest():
    writes = [(0x300, 3), (0x110, 0), (0x280, 0), (0x100, 8)]
    forward, backward = ArchState.fresh(IMAGED), ArchState.fresh(IMAGED)
    for addr, value in writes:
        forward.memory.write(addr, value)
    for addr, value in reversed(writes):
        backward.memory.write(addr, value)
    assert forward.digest() == backward.digest()


def test_sealed_digest_is_the_digest():
    state = ArchState.fresh(IMAGED)
    state.memory.write(0x118, 2)
    expected = state.digest()
    assert state.seal_digest() == expected
    state.memory.write(0x118, 3)  # a sealed state is final: never written
    assert state.digest() == expected
