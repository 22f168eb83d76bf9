"""Program container: validation, labels, disassembly, data image."""

import pickle

import pytest

from repro.errors import ReproError
from repro.isa.assembler import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import Program


def test_validate_rejects_empty():
    with pytest.raises(ReproError, match="empty"):
        Program([]).validate()


def test_validate_rejects_out_of_range_target():
    program = Program([
        Instruction(Op.BEQ, rs1=0, rs2=0, target=99),
        Instruction(Op.HALT),
    ])
    with pytest.raises(ReproError, match="targets 99"):
        program.validate()


def test_validate_requires_halt():
    program = Program([Instruction(Op.NOP)])
    with pytest.raises(ReproError, match="no HALT"):
        program.validate()


@pytest.mark.parametrize("addr, message", [
    (0x101, "misaligned address 0x101$"),
    (-8, r"address -0x8 is outside \[0, 0xfffffffffffffff8\]$"),
    (2**64, r"address 0x10000000000000000 is outside"),
], ids=["misaligned", "negative", "past-2**64"])
def test_misaligned_data_word_rejected(addr, message):
    # A bad address fails once, where the program is built, with one
    # line naming it -- not on every run that loads the image.
    with pytest.raises(ReproError, match=message):
        Program([Instruction(Op.HALT)], image={0x100: 1, addr: 1})


def test_image_values_are_reduced_to_64_bits():
    negative = Program([Instruction(Op.HALT)], image={0x100: -1})
    unsigned = Program([Instruction(Op.HALT)], image={0x100: 2**64 - 1})
    assert dict(negative.image) == {0x100: 2**64 - 1}
    assert negative.fingerprint() == unsigned.fingerprint()


def test_image_is_a_read_only_copy():
    words = {0x100: 1}
    program = Program([Instruction(Op.HALT)], image=words)
    words[0x100] = 2
    assert program.image[0x100] == 1
    with pytest.raises(TypeError):
        program.image[0x100] = 3  # type: ignore[index]


def test_program_pickles_with_its_image():
    program = assemble("""
        .data 0x100: 5 6
        halt
    """, name="pickled")
    restored = pickle.loads(pickle.dumps(program))
    assert list(restored.image.items()) == list(program.image.items())
    assert restored.fingerprint() == program.fingerprint()


def test_label_of():
    program = assemble("""
    begin:
        nop
    done:
        halt
    """)
    assert program.label_of(0) == "begin"
    assert program.label_of(1) == "done"
    assert program.label_of(99) is None


def test_disassemble_contains_labels_and_indices():
    program = assemble("""
    top:
        addi r1, r1, 1
        bne  r1, r2, top
        halt
    """)
    listing = program.disassemble()
    assert "top:" in listing
    assert "addi r1, r1, 1" in listing


def test_iteration_and_indexing(countdown_program):
    assert len(list(countdown_program)) == len(countdown_program)
    assert countdown_program[0].op is Op.MOVI
