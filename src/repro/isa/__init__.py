"""A small 64-bit RISC ISA used by every core model in the library.

The ISA is deliberately SPARC/RISC-flavoured but minimal: 32 integer
registers (``r0`` hardwired to zero), 64-bit words, loads/stores,
conditional branches, direct and indirect jumps, a memory barrier and a
software prefetch.  SST is ISA-agnostic — the mechanism operates on
register dataflow and memory dependences — so this small ISA exercises
every code path of the core models.

Public surface:

* :class:`~repro.isa.opcodes.Op` — the opcode enumeration and its
  classification helpers.
* :class:`~repro.isa.instruction.Instruction` — one decoded instruction.
* :class:`~repro.isa.program.Program` — instructions + labels + initial
  data image.
* :func:`~repro.isa.assembler.assemble` — text assembly → ``Program``.
* :class:`~repro.isa.interpreter.Interpreter` — the functional golden
  model every timing core is validated against.
"""

from repro.isa.opcodes import Op, OpClass
from repro.isa.registers import (
    REG_COUNT,
    ZERO_REG,
    RA_REG,
    SP_REG,
    reg_name,
    parse_reg,
)
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.isa.assembler import assemble
from repro.isa.interpreter import Interpreter, ArchState, run_program

__all__ = [
    "Op",
    "OpClass",
    "REG_COUNT",
    "ZERO_REG",
    "RA_REG",
    "SP_REG",
    "reg_name",
    "parse_reg",
    "Instruction",
    "Program",
    "assemble",
    "Interpreter",
    "ArchState",
    "run_program",
]
