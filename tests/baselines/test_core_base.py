from repro.baselines.core_base import CoreResult
from repro.isa.instruction import Instruction
from repro.isa.interpreter import ArchState
from repro.isa.opcodes import Op
from repro.isa.registers import RA_REG

import pytest


def result(cycles, instructions, name="core", program="p"):
    return CoreResult(core_name=name, program_name=program, cycles=cycles,
                      instructions=instructions, state=ArchState.fresh())


def test_ipc_cpi():
    r = result(cycles=100, instructions=50)
    assert r.ipc == 0.5


def test_zero_cycles_guarded():
    r = result(cycles=0, instructions=0)
    assert r.ipc == 0.0


def test_speedup_over():
    fast = result(cycles=100, instructions=50)
    slow = result(cycles=200, instructions=50)
    assert fast.speedup_over(slow) == 2.0


def test_speedup_requires_same_program():
    a = result(100, 50, program="x")
    b = result(100, 50, program="y")
    with pytest.raises(ValueError, match="different programs"):
        a.speedup_over(b)


def test_call_return_conventions():
    call = Instruction(Op.JAL, rd=RA_REG, target=5)
    assert call.is_call
    tail = Instruction(Op.JAL, rd=0, target=5)
    assert not tail.is_call
    ret = Instruction(Op.JALR, rd=0, rs1=RA_REG, imm=0)
    assert ret.is_return
    indirect = Instruction(Op.JALR, rd=0, rs1=5, imm=0)
    assert not indirect.is_return
    call_indirect = Instruction(Op.JALR, rd=RA_REG, rs1=5, imm=0)
    assert call_indirect.is_call
    assert not call_indirect.is_return
