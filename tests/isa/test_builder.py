"""ProgramBuilder: emission, label fixups, data layout, validation."""

import pytest

from repro.errors import ReproError
from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import run_program
from repro.isa.opcodes import Op


def test_forward_label_backpatched():
    builder = ProgramBuilder()
    builder.beq(0, 0, "end")
    builder.movi(1, 1)
    builder.label("end")
    builder.halt()
    program = builder.build()
    assert program[0].target == 2


def test_backward_label():
    builder = ProgramBuilder()
    builder.movi(1, 3)
    builder.label("loop")
    builder.addi(1, 1, -1)
    builder.bne(1, 0, "loop")
    builder.halt()
    program = builder.build()
    assert program[2].target == 1
    state = run_program(program)
    assert state.regs[1] == 0


def test_undefined_label_raises_at_build():
    builder = ProgramBuilder()
    builder.jal(0, "missing")
    builder.halt()
    with pytest.raises(ReproError, match="undefined label"):
        builder.build()


def test_duplicate_label_raises():
    builder = ProgramBuilder()
    builder.label("x")
    with pytest.raises(ReproError, match="duplicate"):
        builder.label("x")


def test_data_words_layout():
    builder = ProgramBuilder()
    builder.data_words(0x100, [1, 2, 3])
    builder.halt()
    program = builder.build()
    assert list(program.image.items()) == [
        (0x100, 1), (0x108, 2), (0x110, 3),
    ]


@pytest.mark.parametrize("write_twice, addr", [
    (lambda b: (b.data_word(0x100, 1), b.data_word(0x100, 2)), "0x100"),
    (lambda b: (b.data_words(0x100, [1, 2]), b.data_word(0x108, 3)), "0x108"),
    (lambda b: (b.data_word(0x110, 1), b.secret_words(0x100, [1, 2, 3])),
     "0x110"),
    # Two clashes: the first in the run's layout order is named, not
    # the first written.
    (lambda b: (b.data_word(0x118, 1), b.data_word(0x108, 2),
                b.data_words(0x100, range(4))), "0x108"),
], ids=["data_word", "data_words", "secret_words", "first-in-layout"])
def test_overlapping_data_word_rejected(write_twice, addr):
    with pytest.raises(ReproError, match=f"^data word at {addr} is written "
                                         f"twice$"):
        write_twice(ProgramBuilder())


def test_clashing_run_writes_nothing():
    builder = ProgramBuilder()
    builder.data_word(0x110, 9)
    with pytest.raises(ReproError, match="0x110"):
        builder.data_words(0x100, [1, 2, 3])
    builder.halt()
    assert dict(builder.build().image) == {0x110: 9}


def test_here_tracks_position():
    builder = ProgramBuilder()
    assert builder.here == 0
    builder.nop()
    assert builder.here == 1


def test_branch_helper_rejects_non_branch():
    builder = ProgramBuilder()
    with pytest.raises(ReproError, match="not a branch"):
        builder.branch(Op.ADD, 1, 2, "x")


def test_numeric_target_needs_no_fixup():
    builder = ProgramBuilder()
    builder.beq(0, 0, 1)
    builder.halt()
    assert builder.build()[0].target == 1


def test_built_program_executes():
    builder = ProgramBuilder("sum")
    builder.movi(1, 0)
    builder.movi(2, 5)
    builder.label("loop")
    builder.add(1, 1, 2)
    builder.addi(2, 2, -1)
    builder.bne(2, 0, "loop")
    builder.halt()
    state = run_program(builder.build())
    assert state.regs[1] == 5 + 4 + 3 + 2 + 1
