"""Instruction record: source/dest introspection and disassembly."""

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op


def test_source_regs_order():
    add = Instruction(Op.ADD, rd=1, rs1=2, rs2=3)
    assert add.sources == (2, 3)
    addi = Instruction(Op.ADDI, rd=1, rs1=2, imm=1)
    assert addi.sources == (2,)
    movi = Instruction(Op.MOVI, rd=1, imm=1)
    assert movi.sources == ()


def test_store_sources():
    store = Instruction(Op.ST, rs1=4, rs2=5, imm=8)
    assert store.sources == (4, 5)
    assert not store.writes_reg
    assert store.is_store and store.is_mem and not store.is_load


def test_load_flags():
    load = Instruction(Op.LD, rd=1, rs1=2)
    assert load.writes_reg and load.is_load and load.is_mem


def test_control_flags():
    branch = Instruction(Op.BEQ, rs1=1, rs2=2, target=4)
    assert branch.is_control and branch.is_cond_branch
    jump = Instruction(Op.JAL, rd=31, target=0)
    assert jump.is_control and not jump.is_cond_branch


def test_immutability():
    inst = Instruction(Op.ADD, rd=1, rs1=2, rs2=3)
    try:
        inst.rd = 5  # type: ignore[misc]
        raised = False
    except AttributeError:
        raised = True
    assert raised


def test_disassembly_smoke():
    cases = [
        Instruction(Op.MOVI, rd=1, imm=5),
        Instruction(Op.ADD, rd=1, rs1=2, rs2=3),
        Instruction(Op.ADDI, rd=1, rs1=2, imm=-1),
        Instruction(Op.LD, rd=1, rs1=2, imm=8),
        Instruction(Op.ST, rs2=1, rs1=2, imm=8),
        Instruction(Op.BEQ, rs1=1, rs2=2, target=3, label="loop"),
        Instruction(Op.JAL, rd=31, target=7),
        Instruction(Op.JALR, rd=0, rs1=31, imm=0),
        Instruction(Op.PREFETCH, rs1=2, imm=0),
        Instruction(Op.MEMBAR),
        Instruction(Op.HALT),
    ]
    for inst in cases:
        text = str(inst)
        assert inst.op.value.split("i")[0] in text or inst.op.value in text
    assert "loop" in str(cases[5])
