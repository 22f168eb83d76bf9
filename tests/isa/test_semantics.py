"""Unit tests of the shared ALU/branch semantics."""

import pytest

from repro.isa.opcodes import Op
from repro.isa.semantics import (
    MASK64,
    alu_fn_for,
    branch_fn_for,
    effective_address,
    to_signed,
)


def test_signedness_roundtrip():
    assert to_signed(MASK64) == -1
    assert to_signed(MASK64 >> 1) == (1 << 63) - 1
    assert to_signed(1 << 63) == -(1 << 63)
    assert to_signed(5) == 5


def test_add_wraps():
    assert alu_fn_for(Op.ADD)(MASK64, 1) == 0
    assert alu_fn_for(Op.ADD)(2, 3) == 5


def test_sub_wraps():
    assert alu_fn_for(Op.SUB)(0, 1) == MASK64


def test_mul_wraps():
    assert alu_fn_for(Op.MUL)(1 << 63, 2) == 0
    assert alu_fn_for(Op.MUL)(3, 4) == 12


def test_div_signed_truncates_toward_zero():
    assert to_signed(alu_fn_for(Op.DIV)(-7 & MASK64, 2)) == -3
    assert alu_fn_for(Op.DIV)(7, 2) == 3


def test_div_by_zero_is_all_ones():
    assert alu_fn_for(Op.DIV)(42, 0) == MASK64


def test_rem_by_zero_is_dividend():
    assert alu_fn_for(Op.REM)(42, 0) == 42


def test_rem_signs_follow_dividend():
    assert to_signed(alu_fn_for(Op.REM)(-7 & MASK64, 2)) == -1
    assert alu_fn_for(Op.REM)(7, -2 & MASK64) == 1


def test_shifts_mask_amount_to_six_bits():
    assert alu_fn_for(Op.SLL)(1, 64) == 1
    assert alu_fn_for(Op.SRL)(8, 65) == 4


def test_sra_is_arithmetic():
    assert to_signed(alu_fn_for(Op.SRA)(-8 & MASK64, 1)) == -4
    assert alu_fn_for(Op.SRL)(-8 & MASK64, 1) == (MASK64 - 7) >> 1


def test_slt_vs_sltu_on_negative():
    assert alu_fn_for(Op.SLT)(MASK64, 1) == 1
    assert alu_fn_for(Op.SLTU)(MASK64, 1) == 0


def test_alu_result_rejects_non_alu():
    """A non-ALU op has no ALU handler; decode stores that None."""
    assert alu_fn_for(Op.LD) is None


@pytest.mark.parametrize("op,a,b,expected", [
    (Op.BEQ, 5, 5, True),
    (Op.BEQ, 5, 6, False),
    (Op.BNE, 5, 6, True),
    (Op.BLT, MASK64, 0, True),
    (Op.BLTU, MASK64, 0, False),
    (Op.BGE, 0, MASK64, True),
    (Op.BGEU, 0, MASK64, False),
])
def test_branch_conditions(op, a, b, expected):
    assert branch_fn_for(op)(a, b) is expected


def test_branch_taken_rejects_non_branch():
    """A non-branch op has no condition handler; decode stores that
    None."""
    assert branch_fn_for(Op.ADD) is None


def test_effective_address_wraps():
    assert effective_address(MASK64, 9) == 8
