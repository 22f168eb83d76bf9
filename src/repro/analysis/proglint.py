"""Static program verifier (``proglint``).

Workload generators compute loop bounds, data layouts and register
assignments; a one-off-by-one in any of them produces a program that
*runs* (registers reset to zero, memory reads of uninitialised words
return zero) but silently measures the wrong thing.  This module checks
the properties the abstract machine states informally, over a CFG
(:mod:`repro.analysis.cfg`) with two forward dataflow passes:

* **use-before-def** — a register read on some path before any
  instruction wrote it (definitely-assigned analysis; the architectural
  zero register is always defined),
* **unreachable code** — blocks no path from entry reaches,
* **branch/jump targets out of range** — structural, per instruction,
* **writes to the hardwired zero register** — an ALU/load result into
  ``r0`` is silently discarded (``JAL``/``JALR`` with ``rd=r0`` is the
  conventional link-discard idiom and is exempt),
* **memory accesses outside the declared data image** — constant
  propagation from the (architecturally all-zero) entry state finds
  statically-known effective addresses; a load from an address that is
  neither an initialised data word nor any statically-known store
  target reads a constant zero, and any statically-known misaligned
  access faults the cores at runtime.

Everything is reported as a structured :class:`Diagnostic`; nothing here
raises on a bad program — strict-mode callers (``sim.runner``,
``workloads.base``) convert a non-empty report into
:class:`~repro.errors.ProgramLintError`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG
from repro.errors import ProgramLintError
from repro.isa.opcodes import OpClass
from repro.isa.program import WORD_SIZE, Program
from repro.isa.registers import REG_COUNT, ZERO_REG

# Constant-propagation lattice: an int is a known constant, NAC ("not a
# constant") is the bottom element.  The entry state is all-zeros — the
# architectural register file's reset state.
_NAC = None


class DiagKind(enum.Enum):
    """Every class of problem ``proglint`` can report."""

    EMPTY_PROGRAM = "empty_program"
    NO_HALT = "no_halt"
    TARGET_OUT_OF_RANGE = "target_out_of_range"
    UNREACHABLE_CODE = "unreachable_code"
    USE_BEFORE_DEF = "use_before_def"
    ZERO_REG_WRITE = "zero_reg_write"
    LOAD_OUT_OF_IMAGE = "load_out_of_image"
    MISALIGNED_ACCESS = "misaligned_access"
    # Emitted by the speculative-leak taint pass (repro.analysis.taint),
    # not by the default proglint pass set: a tainted value reaches the
    # address operand of a transiently-executable memory access.
    SPEC_LEAK_GADGET = "spec_leak_gadget"


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored to an instruction where that makes sense."""

    kind: DiagKind
    message: str
    pc: Optional[int] = None
    program: str = ""

    def __str__(self) -> str:
        where = f" at pc {self.pc}" if self.pc is not None else ""
        name = f"{self.program}: " if self.program else ""
        return f"{name}{self.kind.value}{where}: {self.message}"


# Lint results are a pure function of program content, and the strict
# entry points re-lint structurally identical programs on every suite
# run (each Machine.run builds its workload afresh).  Results are
# memoized by ``Program.fingerprint()`` — which covers the instruction
# stream, the data image, *and* the name the diagnostics embed — as an
# immutable tuple, with a fresh list handed to each caller.  The cache
# is bounded; on overflow it is simply dropped (lints are cheap to
# recompute, the bound only guards fuzzing loops that generate
# unbounded distinct programs).
_LINT_CACHE: Dict[str, Tuple[Diagnostic, ...]] = {}
_LINT_CACHE_MAX = 1024


def clear_lint_cache() -> None:
    """Drop all memoized lint results (test hygiene)."""
    _LINT_CACHE.clear()


def lint_program(program: Program) -> List[Diagnostic]:
    """Run every pass; returns all diagnostics, program order."""
    key = program.fingerprint()
    cached = _LINT_CACHE.get(key)
    if cached is None:
        if len(_LINT_CACHE) >= _LINT_CACHE_MAX:
            _LINT_CACHE.clear()
        cached = tuple(ProgramLinter(program).run())
        _LINT_CACHE[key] = cached
    return list(cached)


def check_program(program: Program) -> None:
    """Strict entry point: raise :class:`ProgramLintError` on findings."""
    diagnostics = lint_program(program)
    if diagnostics:
        raise ProgramLintError(diagnostics, program.name)


class ProgramLinter:
    """One linting run over one program (build once, ``run()`` once)."""

    def __init__(self, program: Program):
        self.program = program
        self.diagnostics: List[Diagnostic] = []

    def _report(self, kind: DiagKind, message: str,
                pc: Optional[int] = None) -> None:
        self.diagnostics.append(
            Diagnostic(kind=kind, message=message, pc=pc,
                       program=self.program.name)
        )

    def run(self) -> List[Diagnostic]:
        if not self.program.instructions:
            self._report(DiagKind.EMPTY_PROGRAM, "program has no instructions")
            return self.diagnostics
        self._check_structure()
        cfg = CFG(self.program)
        reachable = cfg.reachable()
        self._check_unreachable(cfg, reachable)
        self._check_use_before_def(cfg, reachable)
        self._check_memory(cfg, reachable)
        self.diagnostics.sort(key=lambda d: (d.pc if d.pc is not None else -1))
        return self.diagnostics

    # ------------------------------------------------------------------
    # Structural checks (per instruction, no dataflow needed).
    # ------------------------------------------------------------------

    def _check_structure(self) -> None:
        n = len(self.program.instructions)
        saw_halt = False
        for pc, inst in enumerate(self.program.instructions):
            cls = inst.op_class
            if cls is OpClass.HALT:
                saw_halt = True
            if cls in (OpClass.BRANCH, OpClass.JUMP):
                if not 0 <= inst.target < n:
                    self._report(
                        DiagKind.TARGET_OUT_OF_RANGE,
                        f"{inst.op.value} targets {inst.target}, outside "
                        f"program of length {n}", pc,
                    )
            if (inst.writes_reg and inst.rd == ZERO_REG
                    and cls not in (OpClass.JUMP, OpClass.JUMP_INDIRECT)):
                self._report(
                    DiagKind.ZERO_REG_WRITE,
                    f"{inst.op.value} writes r0; the result is discarded",
                    pc,
                )
        if not saw_halt:
            self._report(DiagKind.NO_HALT, "program has no HALT instruction")

    # ------------------------------------------------------------------
    # Unreachable code.
    # ------------------------------------------------------------------

    def _check_unreachable(self, cfg: CFG, reachable: List[bool]) -> None:
        for block in cfg.blocks:
            if not reachable[block.index]:
                self._report(
                    DiagKind.UNREACHABLE_CODE,
                    f"instructions {block.start}..{block.end - 1} are "
                    f"unreachable from entry", block.start,
                )

    # ------------------------------------------------------------------
    # Use-before-def (definitely-assigned forward dataflow).
    # ------------------------------------------------------------------

    def _check_use_before_def(self, cfg: CFG,
                              reachable: List[bool]) -> None:
        instructions = self.program.instructions
        all_regs = frozenset(range(REG_COUNT))
        entry = frozenset({ZERO_REG})
        # in_defined[b]: registers written on *every* path reaching b.
        in_defined: List[Set[int]] = [set(all_regs) for _ in cfg.blocks]
        if cfg.blocks:
            in_defined[0] = set(entry)

        def transfer(block_index: int) -> Set[int]:
            defined = set(in_defined[block_index])
            for pc in cfg.blocks[block_index].pcs():
                inst = instructions[pc]
                if inst.writes_reg:
                    defined.add(inst.rd)
            return defined

        worklist = [b.index for b in cfg.blocks if reachable[b.index]]
        while worklist:
            index = worklist.pop()
            out = transfer(index)
            for succ in cfg.blocks[index].successors:
                merged = in_defined[succ] & out
                if merged != in_defined[succ]:
                    in_defined[succ] = merged
                    worklist.append(succ)

        flagged: Set[Tuple[int, int]] = set()
        for block in cfg.blocks:
            if not reachable[block.index]:
                continue
            defined = set(in_defined[block.index])
            for pc in block.pcs():
                inst = instructions[pc]
                for src in inst.sources:
                    if src not in defined and (pc, src) not in flagged:
                        flagged.add((pc, src))
                        self._report(
                            DiagKind.USE_BEFORE_DEF,
                            f"{inst.op.value} reads r{src} before any "
                            f"instruction writes it", pc,
                        )
                if inst.writes_reg:
                    defined.add(inst.rd)

    # ------------------------------------------------------------------
    # Memory-image checks (constant propagation).
    # ------------------------------------------------------------------

    def _check_memory(self, cfg: CFG, reachable: List[bool]) -> None:
        instructions = self.program.instructions
        image = self.program.image
        resolved, store_targets = resolved_addresses(
            self.program, cfg, reachable
        )

        for pc, addr in sorted(resolved.items()):
            inst = instructions[pc]
            if addr % WORD_SIZE != 0:
                self._report(
                    DiagKind.MISALIGNED_ACCESS,
                    f"{inst.op.value} effective address {addr:#x} is not "
                    f"{WORD_SIZE}-byte aligned", pc,
                )
                continue
            if inst.is_load and addr not in image and \
                    addr not in store_targets:
                self._report(
                    DiagKind.LOAD_OUT_OF_IMAGE,
                    f"load from {addr:#x}, which is neither in the "
                    f"declared data image nor any static store target "
                    f"(reads constant zero)", pc,
                )


# ---------------------------------------------------------------------------
# Shared dataflow helpers (also used by repro.analysis.taint).
# ---------------------------------------------------------------------------


def transfer_const(inst, pc: int, state: List[Optional[int]]) -> None:
    """One instruction's constant-propagation transfer, in place."""
    cls = inst.op_class
    if not inst.writes_reg:
        return
    if inst.rd == ZERO_REG:
        return
    if cls in (OpClass.ALU, OpClass.MUL, OpClass.DIV):
        a = state[inst.rs1] if inst.reads_rs1 else 0
        if inst.alu_uses_imm:
            # MOVI reads no register, so ``a`` is the constant 0.
            value = (inst.alu_fn(a, inst.imm) if a is not _NAC
                     else _NAC)
        else:
            b = state[inst.rs2]
            value = (inst.alu_fn(a, b)
                     if a is not _NAC and b is not _NAC else _NAC)
        state[inst.rd] = value
    elif cls is OpClass.LOAD:
        state[inst.rd] = _NAC
    elif cls in (OpClass.JUMP, OpClass.JUMP_INDIRECT):
        state[inst.rd] = pc + 1
    else:  # pragma: no cover - WRITES_RD covers exactly the above
        state[inst.rd] = _NAC


def constant_states(program: Program,
                    cfg: CFG) -> List[List[Optional[int]]]:
    """Per-block entry register states under constant propagation from
    the architectural reset state (all registers zero)."""
    instructions = program.instructions
    in_state: List[Optional[List[Optional[int]]]] = [
        None for _ in cfg.blocks
    ]
    if cfg.blocks:
        in_state[0] = [0] * REG_COUNT

    def transfer_block(index: int,
                       state: List[Optional[int]]) -> List[Optional[int]]:
        out = list(state)
        for pc in cfg.blocks[index].pcs():
            transfer_const(instructions[pc], pc, out)
        return out

    worklist = [0] if cfg.blocks else []
    while worklist:
        index = worklist.pop()
        state = in_state[index]
        if state is None:  # pragma: no cover - worklist discipline
            continue
        out = transfer_block(index, state)
        for succ in cfg.blocks[index].successors:
            current = in_state[succ]
            if current is None:
                in_state[succ] = list(out)
                worklist.append(succ)
                continue
            changed = False
            for reg in range(REG_COUNT):
                if current[reg] is not _NAC and current[reg] != out[reg]:
                    current[reg] = _NAC
                    changed = True
            if changed:
                worklist.append(succ)

    # Unvisited-but-reachable blocks (only via malformed edges) get
    # the all-unknown state so downstream checks stay conservative.
    return [
        state if state is not None else [_NAC] * REG_COUNT
        for state in in_state
    ]


def resolved_addresses(
        program: Program, cfg: CFG, reachable: List[bool],
) -> Tuple[Dict[int, int], Set[int]]:
    """Statically-known effective addresses of memory/prefetch pcs.

    Returns ``(pc -> address, store-target address set)``; the store
    targets extend the program's own data segment (results, logs,
    scratch regions) for the load-out-of-image check.
    """
    instructions = program.instructions
    states = constant_states(program, cfg)
    store_targets: Set[int] = set()
    resolved: Dict[int, int] = {}
    for block in cfg.blocks:
        if not reachable[block.index]:
            continue
        state = list(states[block.index])
        for pc in block.pcs():
            inst = instructions[pc]
            if inst.is_mem or inst.op_class is OpClass.PREFETCH:
                base = state[inst.rs1]
                if base is not _NAC:
                    addr = (base + inst.imm) & (2 ** 64 - 1)
                    resolved[pc] = addr
                    if inst.is_store:
                        store_targets.add(addr)
            transfer_const(inst, pc, state)
    return resolved, store_targets


__all__ = [
    "DiagKind",
    "Diagnostic",
    "ProgramLinter",
    "ProgramLintError",
    "check_program",
    "constant_states",
    "lint_program",
    "resolved_addresses",
    "transfer_const",
]
