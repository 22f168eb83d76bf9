"""Control-flow graph over :class:`~repro.isa.program.Program`.

The lint passes in :mod:`repro.analysis.proglint` are classic forward
dataflow analyses, so they want the program partitioned into basic
blocks with explicit successor edges.  PCs in this ISA are instruction
indices, which makes leader detection exact: a leader is index 0, any
branch/jump target, and any instruction following a control transfer or
a HALT.

Indirect jumps (``JALR``) have no static target; their successor set is
conservatively *every* block leader, so reachability and dataflow
analyses never produce a false positive on code only reachable through
an indirect jump.  (Workload generators use JALR exclusively for
call/return idioms, so the imprecision is acceptable for linting.)
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.isa.opcodes import OpClass
from repro.isa.program import Program


@dataclasses.dataclass
class BasicBlock:
    """Half-open instruction range ``[start, end)`` with CFG edges."""

    index: int  # position in CFG.blocks (topological by start pc)
    start: int
    end: int
    successors: List[int] = dataclasses.field(default_factory=list)

    def pcs(self) -> range:
        return range(self.start, self.end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BasicBlock(#{self.index} [{self.start}:{self.end}) "
                f"-> {self.successors})")


class CFG:
    """Basic blocks + edges of one program.

    Out-of-range control targets get no edge (the range diagnostic is
    :mod:`proglint`'s job); the block simply loses that successor, which
    keeps downstream passes well-defined on malformed programs.
    """

    def __init__(self, program: Program):
        self.program = program
        self.blocks: List[BasicBlock] = []
        self.block_of_pc: Dict[int, int] = {}
        self._build()

    def _leaders(self) -> List[int]:
        instructions = self.program.instructions
        n = len(instructions)
        leaders = {0} if n else set()
        for pc, inst in enumerate(instructions):
            cls = inst.op_class
            if cls in (OpClass.BRANCH, OpClass.JUMP):
                if 0 <= inst.target < n:
                    leaders.add(inst.target)
                if pc + 1 < n:
                    leaders.add(pc + 1)
            elif cls in (OpClass.JUMP_INDIRECT, OpClass.HALT):
                if pc + 1 < n:
                    leaders.add(pc + 1)
        return sorted(leaders)

    def _build(self) -> None:
        instructions = self.program.instructions
        n = len(instructions)
        if n == 0:
            return
        leaders = self._leaders()
        bounds = leaders + [n]
        for index, start in enumerate(leaders):
            block = BasicBlock(index=index, start=start,
                               end=bounds[index + 1])
            self.blocks.append(block)
            for pc in block.pcs():
                self.block_of_pc[pc] = index

        all_blocks = list(range(len(self.blocks)))
        for block in self.blocks:
            last = instructions[block.end - 1]
            cls = last.op_class
            successors: List[int] = []
            if cls is OpClass.HALT:
                pass
            elif cls is OpClass.BRANCH:
                if 0 <= last.target < n:
                    successors.append(self.block_of_pc[last.target])
                if block.end < n:
                    successors.append(self.block_of_pc[block.end])
            elif cls is OpClass.JUMP:
                if 0 <= last.target < n:
                    successors.append(self.block_of_pc[last.target])
            elif cls is OpClass.JUMP_INDIRECT:
                successors.extend(all_blocks)
            else:
                # Fallthrough (block split by a following leader).
                if block.end < n:
                    successors.append(self.block_of_pc[block.end])
            # Deduplicate while preserving order (JALR may alias edges).
            seen = set()
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    block.successors.append(succ)

    def reachable(self) -> List[bool]:
        """Blocks reachable from the entry block, by block index."""
        marks = [False] * len(self.blocks)
        if not self.blocks:
            return marks
        stack = [0]
        marks[0] = True
        while stack:
            block = self.blocks[stack.pop()]
            for succ in block.successors:
                if not marks[succ]:
                    marks[succ] = True
                    stack.append(succ)
        return marks
