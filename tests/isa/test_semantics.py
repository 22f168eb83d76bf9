"""Unit tests of the shared ALU/branch semantics."""

import pytest

from repro.errors import SimulatorInvariantError
from repro.isa.opcodes import Op
from repro.isa.semantics import (
    MASK64,
    alu_result,
    branch_taken,
    effective_address,
    to_signed,
    to_unsigned,
)


def test_signedness_roundtrip():
    assert to_signed(MASK64) == -1
    assert to_unsigned(-1) == MASK64
    assert to_signed(1 << 63) == -(1 << 63)
    assert to_signed(5) == 5


def test_add_wraps():
    assert alu_result(Op.ADD, MASK64, 1) == 0
    assert alu_result(Op.ADD, 2, 3) == 5


def test_sub_wraps():
    assert alu_result(Op.SUB, 0, 1) == MASK64


def test_mul_wraps():
    assert alu_result(Op.MUL, 1 << 63, 2) == 0
    assert alu_result(Op.MUL, 3, 4) == 12


def test_div_signed_truncates_toward_zero():
    assert to_signed(alu_result(Op.DIV, to_unsigned(-7), 2)) == -3
    assert alu_result(Op.DIV, 7, 2) == 3


def test_div_by_zero_is_all_ones():
    assert alu_result(Op.DIV, 42, 0) == MASK64


def test_rem_by_zero_is_dividend():
    assert alu_result(Op.REM, 42, 0) == 42


def test_rem_signs_follow_dividend():
    assert to_signed(alu_result(Op.REM, to_unsigned(-7), 2)) == -1
    assert alu_result(Op.REM, 7, to_unsigned(-2)) == 1


def test_shifts_mask_amount_to_six_bits():
    assert alu_result(Op.SLL, 1, 64) == 1
    assert alu_result(Op.SRL, 8, 65) == 4


def test_sra_is_arithmetic():
    assert to_signed(alu_result(Op.SRA, to_unsigned(-8), 1)) == -4
    assert alu_result(Op.SRL, to_unsigned(-8), 1) == (MASK64 - 7) >> 1


def test_slt_vs_sltu_on_negative():
    minus_one = to_unsigned(-1)
    assert alu_result(Op.SLT, minus_one, 1) == 1
    assert alu_result(Op.SLTU, minus_one, 1) == 0


def test_alu_result_rejects_non_alu():
    with pytest.raises(SimulatorInvariantError):
        alu_result(Op.LD, 0, 0)


@pytest.mark.parametrize("op,a,b,expected", [
    (Op.BEQ, 5, 5, True),
    (Op.BEQ, 5, 6, False),
    (Op.BNE, 5, 6, True),
    (Op.BLT, to_unsigned(-1), 0, True),
    (Op.BLTU, to_unsigned(-1), 0, False),
    (Op.BGE, 0, to_unsigned(-1), True),
    (Op.BGEU, 0, to_unsigned(-1), False),
])
def test_branch_conditions(op, a, b, expected):
    assert branch_taken(op, a, b) is expected


def test_branch_taken_rejects_non_branch():
    with pytest.raises(SimulatorInvariantError):
        branch_taken(Op.ADD, 0, 0)


def test_effective_address_wraps():
    assert effective_address(MASK64, 9) == 8
