"""Assembler syntax, label resolution, data directives, and errors."""

import pytest

from repro.errors import AssemblyError, ReproError
from repro.isa.assembler import assemble
from repro.isa.opcodes import Op


def test_basic_program():
    program = assemble("""
        movi r1, 5
        addi r2, r1, 3
        halt
    """)
    assert len(program) == 3
    assert program[0].op is Op.MOVI and program[0].imm == 5
    assert program[1].op is Op.ADDI and program[1].rs1 == 1
    assert program[2].op is Op.HALT


def test_labels_resolve_forward_and_backward():
    program = assemble("""
    start:
        beq r1, r2, end
        jal r0, start
    end:
        halt
    """)
    assert program[0].target == 2
    assert program[1].target == 0


def test_label_on_same_line_as_instruction():
    program = assemble("""
    loop: addi r1, r1, -1
        bne r1, r0, loop
        halt
    """)
    assert program.labels["loop"] == 0
    assert program[1].target == 0


def test_memory_operands():
    program = assemble("""
        ld r1, 8(r2)
        st r3, -16(sp)
        prefetch 0(r1)
        halt
    """)
    load, store, prefetch = program[0], program[1], program[2]
    assert (load.rd, load.rs1, load.imm) == (1, 2, 8)
    assert (store.rs2, store.rs1, store.imm) == (3, 30, -16)
    assert (prefetch.rs1, prefetch.imm) == (1, 0)


def test_data_directive_places_words():
    program = assemble("""
        .data 0x1000: 1 2 0xff
        halt
    """)
    assert list(program.image.items()) == [
        (0x1000, 1), (0x1008, 2), (0x1010, 0xFF),
    ]


def test_negative_data_words_wrap_to_unsigned():
    program = assemble("""
        .data 0x20: -1
        halt
    """)
    assert program.image[0x20] == 2**64 - 1


def test_overlapping_data_directives_rejected():
    with pytest.raises(AssemblyError, match="line 3: data word at 0x1008 "
                                            "is written twice"):
        assemble("""
            .data 0x1000: 1 2
            .data 0x1008: 3
            halt
        """)


def test_comments_and_blank_lines_ignored():
    program = assemble("""
        ; full line comment
        movi r1, 1   # trailing comment
                     ; another
        halt
    """)
    assert len(program) == 2


def test_hex_and_negative_immediates():
    program = assemble("""
        movi r1, 0xdead
        addi r2, r1, -5
        halt
    """)
    assert program[0].imm == 0xDEAD
    assert program[1].imm == -5


def test_unknown_opcode_reports_line():
    with pytest.raises(AssemblyError) as excinfo:
        assemble("movi r1, 1\nbogus r1, r2\nhalt")
    assert "line 2" in str(excinfo.value)
    assert "bogus" in str(excinfo.value)


def test_undefined_label_rejected():
    with pytest.raises(AssemblyError, match="undefined label"):
        assemble("beq r1, r2, nowhere\nhalt")


def test_duplicate_label_rejected():
    with pytest.raises(AssemblyError, match="duplicate label"):
        assemble("a:\nnop\na:\nhalt")


def test_wrong_operand_count_rejected():
    with pytest.raises(AssemblyError, match="takes 3 operand"):
        assemble("add r1, r2\nhalt")


def test_bad_memory_operand_rejected():
    with pytest.raises(AssemblyError, match="memory operand"):
        assemble("ld r1, r2\nhalt")


def test_program_without_halt_rejected():
    with pytest.raises(ReproError, match="no HALT"):
        assemble("movi r1, 1")


def test_jalr_form():
    program = assemble("jalr r0, ra, 0\nhalt")
    inst = program[0]
    assert inst.op is Op.JALR
    assert (inst.rd, inst.rs1, inst.imm) == (0, 31, 0)


def test_numeric_branch_target_allowed():
    program = assemble("beq r0, r0, 1\nhalt")
    assert program[0].target == 1
