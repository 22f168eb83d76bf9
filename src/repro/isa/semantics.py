"""Pure arithmetic/branch semantics shared by *every* execution engine.

The functional interpreter, the in-order core, the OoO core and the SST
core all call these helpers, so a semantic fix lands everywhere at once
— and the golden-model equivalence tests cannot be fooled by two copies
of the same bug.

Values are 64-bit and stored as unsigned Python ints in ``[0, 2**64)``.
Division follows the RISC-V convention: quotient of x/0 is all-ones,
remainder of x/0 is x; overflow of INT_MIN / -1 wraps.

Dispatch is table-driven: each opcode maps to one module-level function
(picklable, so decoded programs still cross process boundaries).
:func:`alu_fn_for` and :func:`branch_fn_for` return an opcode's handler,
or None for any other opcode; decode stores the result on
every :class:`~repro.isa.instruction.Instruction`, and the engines call
``inst.alu_fn(a, b)`` / ``inst.branch_fn(a, b)`` once per simulated
instruction, with no table probe.
"""

from __future__ import annotations

import operator

from repro.isa.opcodes import Op

MASK64 = 2**64 - 1
SIGN_BIT = 1 << 63


def to_signed(value: int) -> int:
    """Reinterpret an unsigned 64-bit value as signed."""
    return value - (1 << 64) if value & SIGN_BIT else value


# ----------------------------------------------------------------------
# ALU op implementations: ``a`` is the first register value and ``b`` the
# second register value or the (already substituted) immediate; each
# returns an unsigned 64-bit value.
# ----------------------------------------------------------------------

def _add(a, b):
    return (a + b) & MASK64


def _sub(a, b):
    return (a - b) & MASK64


def _mul(a, b):
    return (a * b) & MASK64


def _div(a, b):
    if (b & MASK64) == 0:
        return MASK64
    quotient = int(to_signed(a) / to_signed(b & MASK64))
    return quotient & MASK64


def _rem(a, b):
    if (b & MASK64) == 0:
        return a
    sa, sb = to_signed(a), to_signed(b & MASK64)
    return (sa - sb * int(sa / sb)) & MASK64


def _and(a, b):
    return a & (b & MASK64)


def _or(a, b):
    return a | (b & MASK64)


def _xor(a, b):
    return a ^ (b & MASK64)


def _sll(a, b):
    return (a << (b & 63)) & MASK64


def _srl(a, b):
    return a >> (b & 63)


def _sra(a, b):
    return (to_signed(a) >> (b & 63)) & MASK64


def _slt(a, b):
    return 1 if to_signed(a) < to_signed(b & MASK64) else 0


def _sltu(a, b):
    return 1 if a < (b & MASK64) else 0


def _movi(a, b):
    return b & MASK64


_ALU_FN = {
    Op.ADD: _add, Op.ADDI: _add,
    Op.SUB: _sub,
    Op.MUL: _mul,
    Op.DIV: _div,
    Op.REM: _rem,
    Op.AND: _and, Op.ANDI: _and,
    Op.OR: _or, Op.ORI: _or,
    Op.XOR: _xor, Op.XORI: _xor,
    Op.SLL: _sll, Op.SLLI: _sll,
    Op.SRL: _srl, Op.SRLI: _srl,
    Op.SRA: _sra, Op.SRAI: _sra,
    Op.SLT: _slt, Op.SLTI: _slt,
    Op.SLTU: _sltu,
    Op.MOVI: _movi,
}


def alu_fn_for(op: Op):
    """The raw two-operand ALU handler for ``op`` (None for non-ALU).

    Decode stores the result on :class:`~repro.isa.instruction.
    Instruction` (``alu_fn``), so the cycle loops dispatch with a plain
    attribute read instead of an enum-keyed table probe per dynamic
    instruction.
    """
    return _ALU_FN.get(op)


# ----------------------------------------------------------------------
# Branch conditions.
# ----------------------------------------------------------------------

# Signed comparison of two unsigned 64-bit values: flipping the sign bit
# maps [-2**63, 2**63) onto [0, 2**64) in order, so one xor per operand
# replaces two to_signed calls.

def _blt(a, b):
    return a ^ SIGN_BIT < b ^ SIGN_BIT


def _bge(a, b):
    return a ^ SIGN_BIT >= b ^ SIGN_BIT


# The equality and unsigned conditions are the operator module's C
# functions: no Python frame per branch.
_BRANCH_FN = {
    Op.BEQ: operator.eq, Op.BNE: operator.ne,
    Op.BLT: _blt, Op.BGE: _bge,
    Op.BLTU: operator.lt, Op.BGEU: operator.ge,
}


def branch_fn_for(op: Op):
    """The raw condition handler for ``op`` (None for non-branches);
    stored at decode as ``Instruction.branch_fn`` (see
    :func:`alu_fn_for`)."""
    return _BRANCH_FN.get(op)


def effective_address(base: int, imm: int) -> int:
    """Load/store/prefetch effective address (wraps at 64 bits)."""
    return (base + imm) & MASK64
