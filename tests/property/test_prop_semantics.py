"""Algebraic properties of the shared ALU/branch semantics."""

from hypothesis import given, strategies as st

from repro.isa.opcodes import Op
from repro.isa.semantics import MASK64, alu_fn_for, branch_fn_for, to_signed

u64 = st.integers(min_value=0, max_value=MASK64)


@given(u64)
def test_sign_conversion_roundtrips(value):
    assert to_signed(value) & MASK64 == value


@given(u64, u64)
def test_add_matches_modular_arithmetic(a, b):
    assert alu_fn_for(Op.ADD)(a, b) == (a + b) % (1 << 64)


@given(u64, u64)
def test_sub_is_inverse_of_add(a, b):
    total = alu_fn_for(Op.ADD)(a, b)
    assert alu_fn_for(Op.SUB)(total, b) == a


@given(u64, u64)
def test_xor_is_involution(a, b):
    once = alu_fn_for(Op.XOR)(a, b)
    assert alu_fn_for(Op.XOR)(once, b) == a


@given(u64, u64)
def test_div_rem_identity(a, b):
    quotient = to_signed(alu_fn_for(Op.DIV)(a, b))
    remainder = to_signed(alu_fn_for(Op.REM)(a, b))
    if b == 0:
        assert quotient == -1
        assert remainder & MASK64 == a
    else:
        reconstructed = (quotient * to_signed(b) + remainder) & MASK64
        assert reconstructed == a


@given(u64, st.integers(min_value=0, max_value=63))
def test_shift_roundtrip_on_low_bits(a, amount):
    shifted = alu_fn_for(Op.SLL)(a, amount)
    back = alu_fn_for(Op.SRL)(shifted, amount)
    kept = (a << amount & MASK64) >> amount
    assert back == kept


@given(u64, u64)
def test_slt_matches_signed_compare(a, b):
    assert alu_fn_for(Op.SLT)(a, b) == int(to_signed(a) < to_signed(b))


@given(u64, u64)
def test_branch_complements(a, b):
    beq, bne = branch_fn_for(Op.BEQ), branch_fn_for(Op.BNE)
    blt, bge = branch_fn_for(Op.BLT), branch_fn_for(Op.BGE)
    bltu, bgeu = branch_fn_for(Op.BLTU), branch_fn_for(Op.BGEU)
    assert beq(a, b) != bne(a, b)
    assert blt(a, b) != bge(a, b)
    assert bltu(a, b) != bgeu(a, b)


@given(u64, u64)
def test_branch_trichotomy(a, b):
    less = branch_fn_for(Op.BLT)(a, b)
    greater_equal = branch_fn_for(Op.BGE)(a, b)
    equal = branch_fn_for(Op.BEQ)(a, b)
    if equal:
        assert greater_equal and not less
