"""Scoreboarded in-order core — the pipeline SST is built on.

Timing model: issue-when-ready with program-order issue.  Up to
``width`` instructions issue per cycle; an instruction issues at the
first cycle at which (a) an issue slot is free and (b) all its
register operands are ready (stall-on-use).  Loads get their latency
from the memory hierarchy; stores retire into a store buffer and do
not stall the pipeline (their cache fill happens in the background),
which is the standard in-order design and also what ROCK's
non-speculative pipeline does.  A mispredicted branch redirects the front end after the
configured penalty.

The clock is a :class:`repro.core.timing.IssueClock`: stalls are never
ticked through cycle by cycle — the clock jumps straight to the wake
event (operand ready, redirect target) and the
skipped span is recorded in the run's :class:`PerfCounters`, which ride
out on ``CoreResult.extra["perf"]``.

This core *is* the degenerate SST configuration with zero checkpoints;
`tests/integration` asserts the two agree.
"""

from __future__ import annotations

import time

from repro.analysis.sanitizer import make_sanitizer
from repro.baselines.core_base import (
    Core,
    CoreResult,
    DEFAULT_MAX_INSTRUCTIONS,
)
from repro.branch import BranchUnit
from repro.config import InOrderConfig
from repro.core.timing import IssueClock, PerfCounters
from repro.isa import blockcache
from repro.isa.program import Program
from repro.isa.registers import REG_COUNT, ZERO_REG
from repro.isa.semantics import MASK64
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.request import AccessType


class InOrderCore(Core):
    name = "inorder"

    def __init__(self, program: Program, hierarchy: MemoryHierarchy,
                 config: InOrderConfig = InOrderConfig()):
        super().__init__(program, hierarchy)
        self.config = config
        self.branch_unit = BranchUnit(config.predictor)
        # Observational invariant checker; None unless REPRO_SANITIZE.
        self.sanitizer = make_sanitizer("inorder", self.name, program)

    def run(self, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> CoreResult:
        started = time.perf_counter()
        state = self.state
        program = self.program
        latencies = self.config.latencies
        hierarchy = self.hierarchy
        branch_unit = self.branch_unit

        # Everything touched per instruction is bound into locals: the
        # issue loop below runs tens of millions of times per benchmark
        # point and attribute hops dominate otherwise.  Decode comes
        # from the block cache's flat rows — one tuple unpack per
        # instruction instead of a dataclass attribute walk.
        rows = blockcache.get_block_program(program)
        n_insts = len(rows)
        # Direct register-file indexing: writes below guard the zero
        # register, so ``regs[0]`` is invariantly 0 and reads need no
        # special case (ArchState.read_reg's contract, without the call).
        regs = state.regs
        mem_read = state.memory.read
        mem_write = state.memory.write
        data_access = hierarchy.data_access
        do_prefetch = hierarchy.prefetch
        resolve_cond = branch_unit.resolve_cond
        resolve_indirect = branch_unit.resolve_indirect
        push_return = branch_unit.push_return
        mispredict_penalty = branch_unit.mispredict_penalty
        lat_alu = latencies.alu
        lat_mul = latencies.mul
        lat_div = latencies.div
        K_MUL = blockcache.K_MUL
        K_DIV = blockcache.K_DIV
        K_LOAD = blockcache.K_LOAD
        K_STORE = blockcache.K_STORE
        K_PREFETCH = blockcache.K_PREFETCH
        K_BRANCH = blockcache.K_BRANCH
        K_JUMP = blockcache.K_JUMP
        K_JUMP_INDIRECT = blockcache.K_JUMP_INDIRECT
        K_BARRIER = blockcache.K_BARRIER
        K_NOP = blockcache.K_NOP
        K_HALT = blockcache.K_HALT
        ACC_LOAD = AccessType.LOAD
        ACC_STORE = AccessType.STORE

        reg_ready = [0] * REG_COUNT
        # What produced each register's pending value — the CPI stack
        # attributes stall-on-use cycles to it.
        reg_producer = ["compute"] * REG_COUNT
        # Nothing stalls on fetch, but "fetch" stays a key: every
        # in-order perf_signature hashes this dict's key set.
        stalls = {"memory": 0, "long_op": 0, "compute": 0, "fetch": 0,
                  "branch": 0, "drain": 0}
        # The CPI stack *is* the perf-counter stall attribution: one
        # dict, shared, so the two views cannot drift apart.
        perf = PerfCounters(stall_cycles=stalls)
        clock = IssueClock(self.config.width, perf)
        issue_at = clock.issue_at
        advance_to = clock.advance_to
        executed = 0
        last_store_done = 0  # for MEMBAR draining
        sanitizer = self.sanitizer

        pc = 0
        while True:
            if executed >= max_instructions:
                self._check_budget(executed, max_instructions)
            if pc < 0 or pc >= n_insts:
                self._check_pc(pc)
            (kind, rd, rs1, rs2, imm, target, fn, src_a, src_b,
             _writes, uses_imm, inst) = rows[pc]

            # Stall-on-use: the stall goes to the source that is ready
            # last, the first one (rs1) on a tie.
            cycle = clock.cycle
            earliest = cycle
            ready = reg_ready[src_a]
            if ready > earliest:
                earliest = ready
                stall_reason = reg_producer[src_a]
            ready = reg_ready[src_b]
            if ready > earliest:
                earliest = ready
                stall_reason = reg_producer[src_b]
            if earliest > cycle:
                stalls[stall_reason] += earliest - cycle

            if kind == K_HALT:
                executed += 1
                final_cycle = max(earliest, max(reg_ready), last_store_done)
                total = max(final_cycle, 1)
                if sanitizer is not None:
                    sanitizer.on_halt(executed, regs, state.memory, total)
                cpi_stack = dict(stalls)
                cpi_stack["busy"] = max(total - sum(stalls.values()), 0)
                return CoreResult(
                    core_name=self.name,
                    program_name=program.name,
                    cycles=total,
                    instructions=executed,
                    state=state,
                    extra={
                        "branch": branch_unit.stats,
                        **hierarchy.result_stats(),
                        "cpi_stack": cpi_stack,
                        "perf": perf,
                    },
                    wall_seconds=time.perf_counter() - started,
                )

            slot = issue_at(earliest)
            if sanitizer is not None:
                sanitizer.on_issue(slot, cycle)
            executed += 1
            next_pc = pc + 1

            if kind <= K_DIV:  # ALU / MUL / DIV
                a = regs[rs1]
                value = fn(a, imm) if uses_imm else fn(a, regs[rs2])
                if rd != ZERO_REG:
                    regs[rd] = value
                    if kind == K_MUL or kind == K_DIV:
                        reg_ready[rd] = slot + (
                            lat_mul if kind == K_MUL else lat_div
                        )
                        reg_producer[rd] = "long_op"
                    else:
                        reg_ready[rd] = slot + lat_alu
                        reg_producer[rd] = "compute"
            elif kind == K_LOAD:
                addr = (regs[rs1] + imm) & MASK64
                value = mem_read(addr)
                result = data_access(addr, slot, ACC_LOAD)
                if rd != ZERO_REG:
                    regs[rd] = value
                    reg_ready[rd] = result.ready_cycle
                    reg_producer[rd] = "memory"
            elif kind == K_STORE:
                addr = (regs[rs1] + imm) & MASK64
                mem_write(addr, regs[rs2])
                result = data_access(addr, slot, ACC_STORE)
                if result.ready_cycle > last_store_done:
                    last_store_done = result.ready_cycle
            elif kind == K_PREFETCH:
                addr = (regs[rs1] + imm) & MASK64
                do_prefetch(addr, slot)
            elif kind == K_BRANCH:
                taken = fn(regs[rs1], regs[rs2])
                mispredicted = resolve_cond(pc, taken)
                if taken:
                    next_pc = target
                if mispredicted:
                    advance_to(slot + lat_alu + mispredict_penalty, "branch")
            elif kind == K_JUMP:
                if rd != ZERO_REG:
                    regs[rd] = pc + 1
                    reg_ready[rd] = slot + 1
                    reg_producer[rd] = "compute"
                if inst.is_call:
                    push_return(pc + 1)
                next_pc = target
            elif kind == K_JUMP_INDIRECT:
                target = (regs[rs1] + imm) & MASK64
                self._check_pc(target)
                mispredicted = resolve_indirect(
                    pc, target, is_return=inst.is_return
                )
                if rd != ZERO_REG:
                    regs[rd] = pc + 1
                    reg_ready[rd] = slot + 1
                    reg_producer[rd] = "compute"
                if inst.is_call:
                    push_return(pc + 1)
                next_pc = target
                if mispredicted:
                    advance_to(slot + lat_alu + mispredict_penalty, "branch")
            elif kind == K_BARRIER:
                drain = max(max(reg_ready), last_store_done)
                advance_to(drain, "drain")
            elif kind == K_NOP:
                pass
            else:  # pragma: no cover - exhaustiveness guard
                raise AssertionError(f"unhandled opcode {inst.op}")

            pc = next_pc
