"""Functional golden-model interpreter.

Executes a :class:`~repro.isa.program.Program` with no timing at all.
Every timing core in the library must end with exactly the same
architectural state (registers + memory) as this interpreter — that
equivalence is the library's core correctness property and is enforced
by the integration and hypothesis test suites.
"""

from __future__ import annotations

import dataclasses
from typing import List, NoReturn, Optional

from repro.config import DEFAULT_MAX_INSTRUCTIONS
from repro.errors import ExecutionError, ReproError
from repro.isa.opcodes import OpClass
from repro.isa.program import Program
from repro.isa.registers import REG_COUNT, ZERO_REG
from repro.isa.semantics import effective_address
from repro.memory.sparse_memory import SparseMemory
from repro.regress.semid import state_digest


@dataclasses.dataclass
class ArchState:
    """Architectural registers + memory, independent of any core."""

    regs: List[int]
    memory: SparseMemory
    pc: int = 0
    # Set by seal_digest(), once the state is final.
    sealed_digest: Optional[str] = dataclasses.field(
        default=None, compare=False, repr=False)

    @classmethod
    def fresh(cls, program: Optional[Program] = None) -> "ArchState":
        """Zeroed registers, PC 0, and memory holding a copy of
        ``program``'s data image (empty without a program).  The copy
        is the run's own: no run writes through to the image the next
        run starts from."""
        memory = SparseMemory(None if program is None else program.image)
        return cls(regs=[0] * REG_COUNT, memory=memory, pc=0)

    def read_reg(self, index: int) -> int:
        return 0 if index == ZERO_REG else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != ZERO_REG:
            self.regs[index] = value

    def same_architectural_state(self, other: "ArchState") -> bool:
        """Registers and memory equal (PC excluded; HALT position may
        legitimately differ between models only if programs differ,
        so callers normally run the same program)."""
        return self.regs == other.regs and self.memory == other.memory

    def digest(self) -> str:
        """Semantic ID of the registers and the memory words that differ
        from the program's data image or are absent from it
        (:meth:`SparseMemory.changed_items`), a zero written to a new
        address included (unlike ``SparseMemory.__eq__``).  Every run of
        a program starts from the same image, so for runs of one program
        equal final states give equal digests and unequal ones unequal
        digests; the untouched image is not rendered."""
        if self.sealed_digest is not None:
            return self.sealed_digest
        return state_digest(self.regs, self.memory.changed_items())

    def seal_digest(self) -> str:
        """:meth:`digest`, kept on the state for every later call.  Only
        for a final state, one that nothing writes again: the result
        cache seals a run's state when it stores the result, so the
        baseline firewall's ``state_hash`` of the same result reads the
        digest instead of computing it a second time."""
        if self.sealed_digest is None:
            self.sealed_digest = self.digest()
        return self.sealed_digest


@dataclasses.dataclass
class CachedState:
    """A final architectural state restored from the result cache.

    The cache keeps a run's registers, PC and :meth:`ArchState.digest`,
    not its memory image: no experiment reads a cached image, and the
    digest is all that golden verification and the baseline firewall
    compare.  Reading :attr:`memory` raises.
    """

    regs: List[int]
    pc: int
    stored_digest: str
    # Names the point in the error raised by ``memory``.
    point: str = dataclasses.field(default="a cached result", compare=False)

    @property
    def memory(self) -> NoReturn:
        raise ReproError(
            f"{self.point} came from the result cache, which keeps a "
            f"digest of the final memory, not its image; re-run with "
            f"the cache off (REPRO_CACHE=0) to read memory"
        )

    def digest(self) -> str:
        return self.stored_digest


@dataclasses.dataclass
class InterpreterStats:
    """Dynamic instruction mix of one functional run."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    branches_taken: int = 0
    jumps: int = 0


class Interpreter:
    """Step-at-a-time functional executor."""

    def __init__(self, program: Program,
                 max_steps: int = DEFAULT_MAX_INSTRUCTIONS):
        program.validate()
        self.program = program
        self.state = ArchState.fresh(program)
        self.stats = InterpreterStats()
        self.max_steps = max_steps
        self.halted = False

    def run(self) -> ArchState:
        """Run to HALT; raises :class:`ExecutionError` on runaway."""
        while not self.halted:
            self.step()
        return self.state

    def step(self) -> None:
        """Execute one instruction (no-op once halted)."""
        if self.halted:
            return
        if self.stats.instructions >= self.max_steps:
            raise ExecutionError(
                f"exceeded {self.max_steps} steps without HALT "
                f"(program {self.program.name!r})"
            )
        state = self.state
        if not 0 <= state.pc < len(self.program):
            raise ExecutionError(f"PC {state.pc} outside program")
        inst = self.program[state.pc]
        self.stats.instructions += 1
        op = inst.op
        cls = inst.op_class
        next_pc = state.pc + 1

        if cls is OpClass.ALU or cls is OpClass.MUL or cls is OpClass.DIV:
            fn = inst.alu_fn
            if inst.alu_uses_imm:
                # MOVI ignores its first operand, so the uniform rs1
                # read is safe for every immediate form.
                result = fn(state.read_reg(inst.rs1), inst.imm)
            else:
                result = fn(
                    state.read_reg(inst.rs1), state.read_reg(inst.rs2)
                )
            state.write_reg(inst.rd, result)
        elif cls is OpClass.LOAD:
            addr = effective_address(state.read_reg(inst.rs1), inst.imm)
            state.write_reg(inst.rd, state.memory.read(addr))
            self.stats.loads += 1
        elif cls is OpClass.STORE:
            addr = effective_address(state.read_reg(inst.rs1), inst.imm)
            state.memory.write(addr, state.read_reg(inst.rs2))
            self.stats.stores += 1
        elif cls is OpClass.BRANCH:
            self.stats.branches += 1
            if inst.branch_fn(
                state.read_reg(inst.rs1), state.read_reg(inst.rs2)
            ):
                self.stats.branches_taken += 1
                next_pc = inst.target
        elif cls is OpClass.JUMP:
            self.stats.jumps += 1
            state.write_reg(inst.rd, state.pc + 1)
            next_pc = inst.target
        elif cls is OpClass.JUMP_INDIRECT:
            self.stats.jumps += 1
            dest = effective_address(state.read_reg(inst.rs1), inst.imm)
            state.write_reg(inst.rd, state.pc + 1)
            if not 0 <= dest < len(self.program):
                raise ExecutionError(
                    f"indirect jump to {dest} outside program at PC {state.pc}"
                )
            next_pc = dest
        elif cls is OpClass.HALT:
            self.halted = True
            return
        elif cls in (OpClass.BARRIER, OpClass.PREFETCH, OpClass.NOP):
            pass
        else:  # pragma: no cover - exhaustiveness guard
            raise ExecutionError(f"unhandled opcode {op}")
        state.pc = next_pc


def run_program(program: Program,
                max_steps: int = DEFAULT_MAX_INSTRUCTIONS) -> ArchState:
    """Convenience wrapper: functional final state of ``program``."""
    return Interpreter(program, max_steps=max_steps).run()
