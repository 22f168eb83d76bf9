"""The decoded instruction record shared by all models.

An :class:`Instruction` is immutable; the timing cores wrap it in their
own dynamic-instance records rather than mutating it.  PCs and branch
targets are *instruction indices* (not byte addresses) — the ISA has no
binary encoding, which removes an irrelevant layer from the models.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.isa.opcodes import (
    Op,
    OpClass,
    IMM_ALU_OPS,
    WRITES_RD,
    READS_RS1,
    READS_RS2,
    CONTROL_OPS,
    BRANCH_OPS,
)
from repro.isa.registers import RA_REG, ZERO_REG, reg_name
from repro.isa.semantics import alu_fn_for, branch_fn_for


@dataclasses.dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    Fields that an opcode does not use are left at their defaults and
    ignored.  ``target`` is the resolved absolute instruction index for
    branches and ``JAL``; the assembler fills it in from labels.

    Decode metadata (``op_class``, ``writes_reg``, the source-register
    tuple, ...) is computed once at construction and stored on the
    instance: the simulation cycle loops consult these on every issue,
    and precomputing them replaces repeated enum-map and membership
    lookups on the hot path with plain attribute reads.
    """

    op: Op
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    target: int = 0
    # Original label text, kept purely for disassembly readability.
    label: Optional[str] = None

    # Precomputed decode metadata (derived, excluded from eq/repr).
    op_class: OpClass = dataclasses.field(init=False, repr=False,
                                          compare=False, default=None)
    writes_reg: bool = dataclasses.field(init=False, repr=False,
                                         compare=False, default=False)
    reads_rs1: bool = dataclasses.field(init=False, repr=False,
                                        compare=False, default=False)
    reads_rs2: bool = dataclasses.field(init=False, repr=False,
                                        compare=False, default=False)
    # The register operands this instruction reads, in rs1, rs2 order.
    sources: Tuple[int, ...] = dataclasses.field(init=False, repr=False,
                                                 compare=False, default=())
    is_control: bool = dataclasses.field(init=False, repr=False,
                                         compare=False, default=False)
    is_cond_branch: bool = dataclasses.field(init=False, repr=False,
                                             compare=False, default=False)
    is_load: bool = dataclasses.field(init=False, repr=False,
                                      compare=False, default=False)
    is_store: bool = dataclasses.field(init=False, repr=False,
                                       compare=False, default=False)
    is_mem: bool = dataclasses.field(init=False, repr=False,
                                     compare=False, default=False)
    # Return-stack conventions: a JAL/JALR that links through ``ra`` is
    # a call; a JALR through ``ra`` that does not link is a return.
    is_call: bool = dataclasses.field(init=False, repr=False,
                                      compare=False, default=False)
    is_return: bool = dataclasses.field(init=False, repr=False,
                                        compare=False, default=False)
    # ALU form whose second operand is the immediate (incl. MOVI):
    # resolved once here so the per-instruction semantic dispatch never
    # inspects opcode spellings on the hot path.
    alu_uses_imm: bool = dataclasses.field(init=False, repr=False,
                                           compare=False, default=False)
    # Semantic handlers resolved at decode (module-level functions, so
    # decoded programs stay picklable): the two-operand ALU evaluator
    # and the branch condition.  None for opcodes without one.
    alu_fn: Optional[object] = dataclasses.field(init=False, repr=False,
                                                 compare=False, default=None)
    branch_fn: Optional[object] = dataclasses.field(init=False, repr=False,
                                                    compare=False,
                                                    default=None)

    def __post_init__(self) -> None:
        op = self.op
        set_attr = object.__setattr__  # frozen dataclass
        set_attr(self, "op_class", op.op_class)
        # Writes to ``r0`` still count as register writes; the register
        # file discards them, which keeps dependence tracking uniform
        # (cores must check for the zero register themselves).
        set_attr(self, "writes_reg", op in WRITES_RD)
        reads_rs1 = op in READS_RS1
        reads_rs2 = op in READS_RS2
        set_attr(self, "reads_rs1", reads_rs1)
        set_attr(self, "reads_rs2", reads_rs2)
        sources = []
        if reads_rs1:
            sources.append(self.rs1)
        if reads_rs2:
            sources.append(self.rs2)
        set_attr(self, "sources", tuple(sources))
        set_attr(self, "is_control", op in CONTROL_OPS)
        set_attr(self, "is_cond_branch", op in BRANCH_OPS)
        set_attr(self, "is_load", op is Op.LD)
        set_attr(self, "is_store", op is Op.ST)
        set_attr(self, "is_mem", op is Op.LD or op is Op.ST)
        set_attr(self, "is_call",
                 (op is Op.JAL or op is Op.JALR) and self.rd == RA_REG)
        set_attr(self, "is_return",
                 op is Op.JALR and self.rs1 == RA_REG
                 and self.rd == ZERO_REG)
        set_attr(self, "alu_uses_imm", op in IMM_ALU_OPS)
        set_attr(self, "alu_fn", alu_fn_for(op))
        set_attr(self, "branch_fn", branch_fn_for(op))

    # ------------------------------------------------------------------
    # Disassembly.
    # ------------------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        op = self.op
        cls = self.op_class
        tgt = self.label if self.label is not None else str(self.target)
        if op is Op.MOVI:
            return f"movi {reg_name(self.rd)}, {self.imm}"
        if cls is OpClass.LOAD:
            return f"ld {reg_name(self.rd)}, {self.imm}({reg_name(self.rs1)})"
        if cls is OpClass.STORE:
            return f"st {reg_name(self.rs2)}, {self.imm}({reg_name(self.rs1)})"
        if cls is OpClass.PREFETCH:
            return f"prefetch {self.imm}({reg_name(self.rs1)})"
        if cls is OpClass.BRANCH:
            return (
                f"{op.value} {reg_name(self.rs1)}, {reg_name(self.rs2)}, {tgt}"
            )
        if op is Op.JAL:
            return f"jal {reg_name(self.rd)}, {tgt}"
        if op is Op.JALR:
            return f"jalr {reg_name(self.rd)}, {reg_name(self.rs1)}, {self.imm}"
        if op in (Op.MEMBAR, Op.NOP, Op.HALT):
            return op.value
        # Register-immediate ALU forms end in "i" (except movi, handled).
        if op.value.endswith("i"):
            return f"{op.value} {reg_name(self.rd)}, {reg_name(self.rs1)}, {self.imm}"
        return (
            f"{op.value} {reg_name(self.rd)}, "
            f"{reg_name(self.rs1)}, {reg_name(self.rs2)}"
        )
