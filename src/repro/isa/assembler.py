"""Two-pass text assembler for the small RISC ISA.

Syntax (one instruction per line, ``;`` or ``#`` start comments)::

    ; data image: consecutive 64-bit words from a base address
    .data 0x1000: 7 8 9

    start:
        movi  r1, 0x1000
        ld    r2, 8(r1)        ; r2 <- mem[r1 + 8]
        addi  r3, r2, -1
        st    r3, 0(r1)
        beq   r3, zero, done
        jal   ra, start
    done:
        halt

Branch/jump targets are labels; the assembler resolves them to absolute
instruction indices.  Errors carry the offending line number and text.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.errors import AssemblyError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, OpClass
from repro.isa.program import Program
from repro.isa.registers import parse_reg

_MEM_OPERAND = re.compile(r"^(?P<imm>[^()]+)\((?P<reg>[^()]+)\)$")
_LABEL_DEF = re.compile(r"^(?P<label>[A-Za-z_.$][\w.$]*):(?P<rest>.*)$")
_DATA_DIRECTIVE = re.compile(r"^\.data\s+(?P<addr>\S+)\s*:\s*(?P<words>.*)$")


def _parse_int(text: str, line_number: int, line: str) -> int:
    try:
        return int(text.strip(), 0)
    except ValueError:
        raise AssemblyError(f"not an integer: {text!r}", line_number, line)


def _split_operands(rest: str) -> List[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


def _strip_comment(line: str) -> str:
    for marker in (";", "#"):
        at = line.find(marker)
        if at >= 0:
            line = line[:at]
    return line.strip()


def assemble(source: str, name: str = "program") -> Program:
    """Assemble ``source`` into a :class:`Program`.

    Raises :class:`AssemblyError` with the line number on any problem.
    """
    pending: List[Tuple[int, str, str, List[str]]] = []  # line no, line, mnemonic, operands
    labels: Dict[str, int] = {}
    image: Dict[int, int] = {}

    for line_number, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue

        directive = _DATA_DIRECTIVE.match(line)
        if directive:
            addr = _parse_int(directive.group("addr"), line_number, raw)
            for offset, word_text in enumerate(directive.group("words").split()):
                word_addr = addr + 8 * offset
                if word_addr in image:
                    raise AssemblyError(
                        f"data word at {word_addr:#x} is written twice",
                        line_number, raw,
                    )
                image[word_addr] = _parse_int(word_text, line_number, raw)
            continue

        label_match = _LABEL_DEF.match(line)
        if label_match:
            label = label_match.group("label")
            if label in labels:
                raise AssemblyError(f"duplicate label {label!r}", line_number, raw)
            labels[label] = len(pending)
            line = label_match.group("rest").strip()
            if not line:
                continue

        parts = line.split(None, 1)
        mnemonic = parts[0]
        operands = _split_operands(parts[1]) if len(parts) > 1 else []
        pending.append((line_number, raw, mnemonic, operands))

    instructions = [
        _encode(line_number, raw, mnemonic, operands, labels)
        for line_number, raw, mnemonic, operands in pending
    ]
    program = Program(instructions, labels=labels, image=image, name=name)
    program.validate()
    return program


def _resolve_target(
    text: str, labels: Dict[str, int], line_number: int, line: str
) -> Tuple[int, str]:
    """A branch target is a label or a bare instruction index."""
    token = text.strip()
    if token in labels:
        return labels[token], token
    try:
        return int(token, 0), token
    except ValueError:
        raise AssemblyError(f"undefined label {token!r}", line_number, line)


def _mem_operand(text: str, line_number: int, line: str) -> Tuple[int, int]:
    """Parse ``imm(reg)`` into ``(imm, reg_index)``."""
    match = _MEM_OPERAND.match(text.strip())
    if not match:
        raise AssemblyError(
            f"expected imm(reg) memory operand, got {text!r}", line_number, line
        )
    imm = _parse_int(match.group("imm"), line_number, line)
    try:
        reg = parse_reg(match.group("reg"))
    except AssemblyError as exc:
        raise AssemblyError(str(exc), line_number, line)
    return imm, reg


def _encode(
    line_number: int,
    line: str,
    mnemonic: str,
    operands: List[str],
    labels: Dict[str, int],
) -> Instruction:
    try:
        op = Op.from_mnemonic(mnemonic)
    except KeyError:
        raise AssemblyError(f"unknown opcode {mnemonic!r}", line_number, line)

    def need(count: int) -> None:
        if len(operands) != count:
            raise AssemblyError(
                f"{op.value} takes {count} operand(s), got {len(operands)}",
                line_number,
                line,
            )

    def reg(index: int) -> int:
        try:
            return parse_reg(operands[index])
        except AssemblyError as exc:
            raise AssemblyError(str(exc), line_number, line)

    cls = op.op_class
    if op is Op.MOVI:
        need(2)
        return Instruction(op, rd=reg(0), imm=_parse_int(operands[1], line_number, line))
    if cls is OpClass.LOAD:
        need(2)
        imm, base = _mem_operand(operands[1], line_number, line)
        return Instruction(op, rd=reg(0), rs1=base, imm=imm)
    if cls is OpClass.STORE:
        need(2)
        imm, base = _mem_operand(operands[1], line_number, line)
        return Instruction(op, rs2=reg(0), rs1=base, imm=imm)
    if cls is OpClass.PREFETCH:
        need(1)
        imm, base = _mem_operand(operands[0], line_number, line)
        return Instruction(op, rs1=base, imm=imm)
    if cls is OpClass.BRANCH:
        need(3)
        target, label = _resolve_target(operands[2], labels, line_number, line)
        return Instruction(op, rs1=reg(0), rs2=reg(1), target=target, label=label)
    if op is Op.JAL:
        need(2)
        target, label = _resolve_target(operands[1], labels, line_number, line)
        return Instruction(op, rd=reg(0), target=target, label=label)
    if op is Op.JALR:
        need(3)
        return Instruction(
            op, rd=reg(0), rs1=reg(1), imm=_parse_int(operands[2], line_number, line)
        )
    if op in (Op.MEMBAR, Op.NOP, Op.HALT):
        need(0)
        return Instruction(op)
    # Remaining: ALU.  Immediate forms end in "i".
    if op.value.endswith("i"):
        need(3)
        return Instruction(
            op, rd=reg(0), rs1=reg(1), imm=_parse_int(operands[2], line_number, line)
        )
    need(3)
    return Instruction(op, rd=reg(0), rs1=reg(1), rs2=reg(2))
