"""Programmatic program construction for workload generators.

The assembler is convenient for humans; generators that compute loop
bounds and data layouts are cleaner with a builder that handles label
back-patching::

    b = ProgramBuilder("countdown")
    b.movi(1, 10)
    loop = b.label("loop")
    b.addi(1, 1, -1)
    b.bne(1, 0, "loop")
    b.halt()
    program = b.build()

Labels may be referenced before they are defined; ``build()`` patches
all forward references and validates the result.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Tuple, Union

from repro.errors import ReproError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, OpClass
from repro.isa.program import WORD_SIZE, Program

LabelOrIndex = Union[str, int]


class ProgramBuilder:
    """Accumulates instructions, labels and data words, then builds."""

    def __init__(self, name: str = "program"):
        self.name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._image: Dict[int, int] = {}
        self._fixups: List[Tuple[int, str]] = []  # (instr index, label)
        self._secret_ranges: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------

    def label(self, name: str) -> int:
        """Define ``name`` at the current position; returns the index."""
        if name in self._labels:
            raise ReproError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return self._labels[name]

    def data_word(self, addr: int, value: int) -> None:
        """Initialise the word at ``addr``; :class:`Program` checks the
        address and reduces the value to 64 bits when it is built."""
        if addr in self._image:
            raise ReproError(f"data word at {addr:#x} is written twice")
        self._image[addr] = value

    def data_words(self, addr: int, values: Iterable[int]) -> None:
        """Lay out ``values`` as consecutive words from ``addr`` up, in
        order, with one dict build and one clash check.  A clash writes
        nothing and names the first address, in layout order, that is
        already written."""
        words = dict(zip(itertools.count(addr, WORD_SIZE), values))
        if not self._image.keys().isdisjoint(words.keys()):
            clash = next(word for word in words if word in self._image)
            raise ReproError(f"data word at {clash:#x} is written twice")
        self._image.update(words)

    def mark_secret(self, start: int, end: int) -> None:
        """Declare the half-open byte range ``[start, end)`` of the data
        image secret, for the speculative-leak taint analysis."""
        self._secret_ranges.append((start, end))

    def secret_words(self, addr: int, values) -> None:
        """Lay out ``values`` at ``addr`` and mark the range secret."""
        values = list(values)
        self.data_words(addr, values)
        self.mark_secret(addr, addr + 8 * len(values))

    @property
    def here(self) -> int:
        """Index the next emitted instruction will occupy."""
        return len(self._instructions)

    def _emit(self, inst: Instruction) -> int:
        self._instructions.append(inst)
        return len(self._instructions) - 1

    def _emit_targeted(self, op: Op, target: LabelOrIndex, **fields) -> int:
        if isinstance(target, str):
            index = self._emit(Instruction(op, target=0, label=target, **fields))
            self._fixups.append((index, target))
            return index
        return self._emit(Instruction(op, target=target, **fields))

    # ------------------------------------------------------------------
    # Instruction emitters (thin, one per opcode family).
    # ------------------------------------------------------------------

    def alu(self, op: Op, rd: int, rs1: int, rs2: int) -> int:
        return self._emit(Instruction(op, rd=rd, rs1=rs1, rs2=rs2))

    def alui(self, op: Op, rd: int, rs1: int, imm: int) -> int:
        return self._emit(Instruction(op, rd=rd, rs1=rs1, imm=imm))

    def add(self, rd: int, rs1: int, rs2: int) -> int:
        return self.alu(Op.ADD, rd, rs1, rs2)

    def sub(self, rd: int, rs1: int, rs2: int) -> int:
        return self.alu(Op.SUB, rd, rs1, rs2)

    def mul(self, rd: int, rs1: int, rs2: int) -> int:
        return self.alu(Op.MUL, rd, rs1, rs2)

    def div(self, rd: int, rs1: int, rs2: int) -> int:
        return self.alu(Op.DIV, rd, rs1, rs2)

    def and_(self, rd: int, rs1: int, rs2: int) -> int:
        return self.alu(Op.AND, rd, rs1, rs2)

    def or_(self, rd: int, rs1: int, rs2: int) -> int:
        return self.alu(Op.OR, rd, rs1, rs2)

    def xor(self, rd: int, rs1: int, rs2: int) -> int:
        return self.alu(Op.XOR, rd, rs1, rs2)

    def sll(self, rd: int, rs1: int, rs2: int) -> int:
        return self.alu(Op.SLL, rd, rs1, rs2)

    def slt(self, rd: int, rs1: int, rs2: int) -> int:
        return self.alu(Op.SLT, rd, rs1, rs2)

    def addi(self, rd: int, rs1: int, imm: int) -> int:
        return self.alui(Op.ADDI, rd, rs1, imm)

    def andi(self, rd: int, rs1: int, imm: int) -> int:
        return self.alui(Op.ANDI, rd, rs1, imm)

    def ori(self, rd: int, rs1: int, imm: int) -> int:
        return self.alui(Op.ORI, rd, rs1, imm)

    def xori(self, rd: int, rs1: int, imm: int) -> int:
        return self.alui(Op.XORI, rd, rs1, imm)

    def slli(self, rd: int, rs1: int, imm: int) -> int:
        return self.alui(Op.SLLI, rd, rs1, imm)

    def srli(self, rd: int, rs1: int, imm: int) -> int:
        return self.alui(Op.SRLI, rd, rs1, imm)

    def slti(self, rd: int, rs1: int, imm: int) -> int:
        return self.alui(Op.SLTI, rd, rs1, imm)

    def movi(self, rd: int, imm: int) -> int:
        return self._emit(Instruction(Op.MOVI, rd=rd, imm=imm))

    def ld(self, rd: int, base: int, imm: int = 0) -> int:
        return self._emit(Instruction(Op.LD, rd=rd, rs1=base, imm=imm))

    def st(self, rs2: int, base: int, imm: int = 0) -> int:
        return self._emit(Instruction(Op.ST, rs2=rs2, rs1=base, imm=imm))

    def prefetch(self, base: int, imm: int = 0) -> int:
        return self._emit(Instruction(Op.PREFETCH, rs1=base, imm=imm))

    def branch(self, op: Op, rs1: int, rs2: int, target: LabelOrIndex) -> int:
        if op.op_class is not OpClass.BRANCH:
            raise ReproError(f"{op} is not a branch")
        return self._emit_targeted(op, target, rs1=rs1, rs2=rs2)

    def beq(self, rs1: int, rs2: int, target: LabelOrIndex) -> int:
        return self.branch(Op.BEQ, rs1, rs2, target)

    def bne(self, rs1: int, rs2: int, target: LabelOrIndex) -> int:
        return self.branch(Op.BNE, rs1, rs2, target)

    def blt(self, rs1: int, rs2: int, target: LabelOrIndex) -> int:
        return self.branch(Op.BLT, rs1, rs2, target)

    def bge(self, rs1: int, rs2: int, target: LabelOrIndex) -> int:
        return self.branch(Op.BGE, rs1, rs2, target)

    def bltu(self, rs1: int, rs2: int, target: LabelOrIndex) -> int:
        return self.branch(Op.BLTU, rs1, rs2, target)

    def bgeu(self, rs1: int, rs2: int, target: LabelOrIndex) -> int:
        return self.branch(Op.BGEU, rs1, rs2, target)

    def jal(self, rd: int, target: LabelOrIndex) -> int:
        return self._emit_targeted(Op.JAL, target, rd=rd)

    def jalr(self, rd: int, rs1: int, imm: int = 0) -> int:
        return self._emit(Instruction(Op.JALR, rd=rd, rs1=rs1, imm=imm))

    def membar(self) -> int:
        return self._emit(Instruction(Op.MEMBAR))

    def nop(self) -> int:
        return self._emit(Instruction(Op.NOP))

    def halt(self) -> int:
        return self._emit(Instruction(Op.HALT))

    # ------------------------------------------------------------------
    # Finalisation.
    # ------------------------------------------------------------------

    def build(self) -> Program:
        """Patch label references and return a validated Program."""
        instructions = list(self._instructions)
        for index, label in self._fixups:
            if label not in self._labels:
                raise ReproError(f"undefined label {label!r}")
            old = instructions[index]
            instructions[index] = Instruction(
                old.op,
                rd=old.rd,
                rs1=old.rs1,
                rs2=old.rs2,
                imm=old.imm,
                target=self._labels[label],
                label=label,
            )
        program = Program(
            instructions, labels=dict(self._labels), image=self._image,
            name=self.name, secret_ranges=list(self._secret_ranges),
        )
        program.validate()
        return program
