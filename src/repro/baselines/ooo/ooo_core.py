"""Out-of-order core timing model.

A window-constrained dataflow model, the standard fast abstraction of a
rename + ROB + issue-queue + LSQ machine:

* **Rename** is implicit: operands link to their *producing dynamic
  instruction's* completion time, so false dependences never stall —
  exactly what a physical rename stage buys.
* **ROB**: instruction ``i`` cannot dispatch until ``i - rob_size`` has
  committed; commit is in order and ``width`` per cycle.
* **Issue queue**: entry held from dispatch to issue; ``width``
  instructions start execution per cycle.
* **LSQ**: memory ops hold an entry to commit; a load waits for every
  older store's address (conservative disambiguation) and forwards
  from the youngest same-address store still in flight.
* **Branches** resolve at execute; a mispredict moves fetch to
  resolution plus the redirect penalty.

Each window is a ring of K release cycles.  Entries are taken in
dispatch order, so (numbering dynamic instructions from 1) instruction
``n`` takes the entry that instruction ``n - K`` held and waits for
that entry's release: ring slot ``n % K``, read at dispatch and written
at commit (with the commit cycle for the ROB and the LSQ, the issue
cycle for the IQ).  The LSQ numbers memory ops instead of
instructions.  Every slot starts at release cycle 0, which never
delays a dispatch, so the first K entries are free.  This is exact: a
K-entry window holds no more than K instructions, and the one a
dispatch must wait for is the oldest, ``n - K``.

The front end never stalls on a full window: the fetch cursor runs at
``width`` per cycle whatever dispatch does, and only a
mispredict moves it (to the redirect cycle).  A window's
``stall_cycles`` and ``branch_redirect_cycles`` are measured from the
fetch cursor, so both grow with the cursor's lag behind dispatch and
sum overlapping waits: on a bench-scale ``fp-stream`` run of
``ooo-4w-rob32`` the ROB figure is tens of billions of cycles in a run
of under a million.  They are per-instruction wait sums, not parts of
the cycle count (ROADMAP item 4 redraws them).

The model is event-driven by construction — every structure hands back
the *cycle* a resource frees rather than being polled — so the clock
only ever lands on cycles where something happens.  A run's
:class:`~repro.core.timing.PerfCounters` (``extra["perf"]``) report the
distinct commit cycles actually visited vs. the span jumped over, plus
per-cause wait attribution (operand, issue port, window occupancy,
memory ordering).

Like every core here it executes functionally, so final architectural
state is checked against the golden interpreter.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict

from repro.analysis.sanitizer import make_sanitizer
from repro.baselines.core_base import Core, CoreResult
from repro.branch import BranchUnit
from repro.config import (
    ALU_LATENCY,
    DEFAULT_MAX_INSTRUCTIONS,
    DIV_LATENCY,
    MUL_LATENCY,
    OoOConfig,
)
from repro.core.timing import PerfCounters
from repro.isa import blockcache
from repro.isa.program import Program
from repro.isa.registers import REG_COUNT
from repro.isa.semantics import MASK64
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.request import AccessType

# Store-to-load forwarding latency inside the LSQ.
FORWARD_LATENCY = 1

# Smallest issue-claim table that is pruned (see OoOCore.run).
CLAIM_PRUNE_MIN = 4096


@dataclasses.dataclass
class OoOStats:
    dispatched: int = 0
    branch_redirect_cycles: int = 0
    load_forwards: int = 0


class OoOCore(Core):
    name = "ooo"

    def __init__(self, program: Program, hierarchy: MemoryHierarchy,
                 config: OoOConfig = OoOConfig()):
        super().__init__(program, hierarchy)
        self.config = config
        self.branch_unit = BranchUnit(config.predictor)
        self.stats = OoOStats()
        # Observational invariant checker; None unless REPRO_SANITIZE.
        self.sanitizer = make_sanitizer("ooo", self.name, program)

    def run(self, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> CoreResult:
        started = time.perf_counter()
        config = self.config
        state = self.state
        program = self.program
        hierarchy = self.hierarchy
        branch_unit = self.branch_unit

        # Structural-hazard state, kept in locals because each update is
        # a handful of integer operations and a call per structure per
        # dynamic instruction would cost more than the work:
        # * fetch and commit bandwidth are forward-only cursors: at most
        #   ``width`` claims per cycle, never before the requested cycle;
        # * issue ports are a per-cycle claim count, because out-of-order
        #   issue asks for slots in any time order.  No instruction
        #   claims a cycle before its dispatch, which is at least its
        #   fetch slot and the commit of the instruction whose ROB entry
        #   it takes; both only move forward, so the claims below them
        #   are dead and are dropped whenever the table has doubled;
        # * the ROB, IQ and LSQ are rings of release cycles (see the
        #   module docstring): a dispatch waits for the release of the
        #   entry it takes, and one that waits counts one
        #   ``full_stalls`` and its wait in ``stall_cycles``.
        width = config.width
        fetch_cursor = 0  # forward-moving bandwidth cursor
        fetch_used = 0
        commit_cursor = 0  # never behind last_commit
        commit_used = 0
        issue_used: Dict[int, int] = {}  # cycle -> issue ports claimed
        issue_claims = issue_used.get
        issue_prune_at = CLAIM_PRUNE_MIN
        rob_size = config.rob_size
        iq_size = config.iq_size
        lsq_size = config.lsq_size
        rob = [0] * rob_size
        iq = [0] * iq_size
        lsq = [0] * lsq_size
        mem_ops = 0  # loads and stores dispatched
        rob_full_stalls = rob_stall_cycles = 0
        iq_full_stalls = iq_stall_cycles = 0
        lsq_full_stalls = lsq_stall_cycles = 0

        # Hot-loop locals (see SSTCore._normal_step): one dynamic
        # instruction per iteration, tens of millions of iterations per
        # point.  Decode comes from the block cache's flat rows.
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
        lat_alu = ALU_LATENCY
        lat_mul = MUL_LATENCY
        lat_div = DIV_LATENCY
        K_MUL = blockcache.K_MUL
        K_DIV = blockcache.K_DIV
        K_LOAD = blockcache.K_LOAD
        K_STORE = blockcache.K_STORE
        K_PREFETCH = blockcache.K_PREFETCH
        K_BRANCH = blockcache.K_BRANCH
        K_JUMP = blockcache.K_JUMP
        K_JUMP_INDIRECT = blockcache.K_JUMP_INDIRECT
        K_BARRIER = blockcache.K_BARRIER
        K_HALT = blockcache.K_HALT
        ACC_LOAD = AccessType.LOAD
        ACC_STORE = AccessType.STORE

        # Completion time of the last writer of each architectural reg.
        reg_complete = [0] * REG_COUNT
        # addr -> (data_complete, commit_time) of the youngest store.
        store_inflight: Dict[int, tuple] = {}
        latest_store_ready = 0  # conservative disambiguation barrier
        mem_order_barrier = 0  # MEMBAR
        last_mem_complete = 0
        last_commit = 0
        executed = 0
        pc = 0

        # Observability (never feeds back into timing).  The waits are
        # per-instruction and may overlap in time, so they are an
        # *attribution* of waiting, not a partition of the cycle count;
        # they go into ``PerfCounters.stall_cycles`` at HALT.
        operand_wait = issue_port_wait = mem_order_wait = 0
        load_forwards = 0
        branch_redirect_cycles = 0
        commit_cycles_stepped = 0
        sanitizer = self.sanitizer

        while True:
            if executed >= max_instructions:
                self._check_budget(executed, max_instructions)
            if pc < 0 or pc >= n_insts:
                self._check_pc(pc)
            (kind, rd, rs1, rs2, imm, target, fn, src_a, src_b,
             writes_reg, uses_imm, inst) = rows[pc]
            executed += 1

            # ---- front end -------------------------------------------
            dispatch = fetch_cursor  # the fetch slot
            fetch_used += 1
            if fetch_used >= width:
                fetch_cursor += 1
                fetch_used = 0
                if len(issue_used) >= issue_prune_at:
                    # This instruction's ROB entry is released at
                    # rob[executed % rob_size], no later than any later
                    # instruction's.
                    live_from = rob[executed % rob_size]
                    if dispatch > live_from:
                        live_from = dispatch
                    issue_used = {claim_cycle: claims for claim_cycle, claims
                                  in issue_used.items()
                                  if claim_cycle >= live_from}
                    issue_claims = issue_used.get
                    issue_prune_at = 2 * max(len(issue_used),
                                             CLAIM_PRUNE_MIN // 2)

            if kind == K_HALT:
                cycles = max(last_commit, dispatch, 1)
                if sanitizer is not None:
                    sanitizer.on_halt(executed, regs, state.memory, cycles)
                stats = self.stats
                stats.dispatched = executed - 1
                stats.load_forwards = load_forwards
                stats.branch_redirect_cycles = branch_redirect_cycles
                perf = PerfCounters(
                    cycles_stepped=commit_cycles_stepped,
                    cycles_skipped=max(cycles - commit_cycles_stepped, 0),
                    stall_cycles={
                        "operand": operand_wait,
                        "issue_port": issue_port_wait,
                        "mem_order": mem_order_wait,
                        "rob": rob_stall_cycles,
                        "iq": iq_stall_cycles,
                        "lsq": lsq_stall_cycles,
                        "branch": branch_redirect_cycles,
                    },
                )
                return CoreResult(
                    core_name=self.name,
                    program_name=program.name,
                    cycles=cycles,
                    instructions=executed,
                    state=state,
                    extra={
                        "ooo": stats,
                        "branch": branch_unit.stats,
                        **hierarchy.result_stats(),
                        "rob": {"full_stalls": rob_full_stalls,
                                "stall_cycles": rob_stall_cycles},
                        "iq": {"full_stalls": iq_full_stalls,
                               "stall_cycles": iq_stall_cycles},
                        "lsq": {"full_stalls": lsq_full_stalls,
                                "stall_cycles": lsq_stall_cycles},
                        "perf": perf,
                    },
                    wall_seconds=time.perf_counter() - started,
                )

            # ---- dispatch (take a ROB, IQ and LSQ entry) -------------
            # ``executed`` numbers this instruction from 1, ``mem_ops``
            # this memory op.
            rob_at = executed % rob_size
            blocking = rob[rob_at]
            if blocking > dispatch:
                rob_full_stalls += 1
                rob_stall_cycles += blocking - dispatch
                dispatch = blocking
            iq_at = executed % iq_size
            blocking = iq[iq_at]
            if blocking > dispatch:
                iq_full_stalls += 1
                iq_stall_cycles += blocking - dispatch
                dispatch = blocking
            if kind == K_LOAD or kind == K_STORE:
                mem_ops += 1
                lsq_at = mem_ops % lsq_size
                blocking = lsq[lsq_at]
                if blocking > dispatch:
                    lsq_full_stalls += 1
                    lsq_stall_cycles += blocking - dispatch
                    dispatch = blocking
            if sanitizer is not None:
                sanitizer.on_dispatch(
                    dispatch, rob[rob_at], iq[iq_at],
                    lsq[lsq_at] if kind == K_LOAD or kind == K_STORE
                    else None,
                )

            # ---- operand readiness -----------------------------------
            ready = dispatch
            src_ready = reg_complete[src_a]
            if src_ready > ready:
                ready = src_ready
            src_ready = reg_complete[src_b]
            if src_ready > ready:
                ready = src_ready
            if ready > dispatch:
                operand_wait += ready - dispatch

            next_pc = pc + 1
            addr = None
            if kind == K_LOAD:
                ordered = ready
                if mem_order_barrier > ordered:
                    ordered = mem_order_barrier
                if latest_store_ready > ordered:
                    ordered = latest_store_ready
                if ordered > ready:
                    mem_order_wait += ordered - ready
                    ready = ordered
            elif kind == K_STORE:
                if mem_order_barrier > ready:
                    mem_order_wait += mem_order_barrier - ready
                    ready = mem_order_barrier

            slot = ready
            claimed = issue_claims(slot, 0)
            while claimed >= width:
                slot += 1
                claimed = issue_claims(slot, 0)
            issue_used[slot] = claimed + 1
            if slot > ready:
                issue_port_wait += slot - ready

            # ---- execute (functional + completion time) --------------
            if kind <= K_DIV:  # ALU / MUL / DIV
                a = regs[rs1]
                value = fn(a, imm) if uses_imm else fn(a, regs[rs2])
                if rd:
                    regs[rd] = value
                if kind == K_MUL or kind == K_DIV:
                    complete = slot + (lat_mul if kind == K_MUL else lat_div)
                else:
                    complete = slot + lat_alu
            elif kind == K_LOAD:
                addr = (regs[rs1] + imm) & MASK64
                value = mem_read(addr)
                if rd:
                    regs[rd] = value
                inflight = store_inflight.get(addr)
                result = data_access(addr, slot, ACC_LOAD)
                complete = result.ready_cycle
                if inflight is not None and inflight[1] > slot:
                    # Youngest same-address store not yet committed:
                    # forward from the LSQ instead of the cache.
                    load_forwards += 1
                    forward = slot + FORWARD_LATENCY
                    complete = forward if forward > inflight[0] else inflight[0]
                if complete > last_mem_complete:
                    last_mem_complete = complete
            elif kind == K_STORE:
                addr = (regs[rs1] + imm) & MASK64
                mem_write(addr, regs[rs2])
                complete = slot + 1  # address+data staged in the LSQ
                if slot > latest_store_ready:
                    latest_store_ready = slot
                if complete > last_mem_complete:
                    last_mem_complete = complete
            elif kind == K_PREFETCH:
                do_prefetch((regs[rs1] + imm) & MASK64, slot)
                complete = slot + 1
            elif kind == K_BRANCH:
                taken = fn(regs[rs1], regs[rs2])
                mispredicted = resolve_cond(pc, taken)
                complete = slot + lat_alu
                if taken:
                    next_pc = target
                if mispredicted:
                    # Fetch restarts at the redirect; the cycles it
                    # loses are counted from the fetch cursor.
                    redirect = complete + mispredict_penalty
                    if redirect > fetch_cursor:
                        branch_redirect_cycles += redirect - fetch_cursor
                        fetch_cursor = redirect
                        fetch_used = 0
            elif kind == K_JUMP:
                if rd:
                    regs[rd] = pc + 1
                if inst.is_call:
                    push_return(pc + 1)
                next_pc = target
                complete = slot + 1
            elif kind == K_JUMP_INDIRECT:
                target = (regs[rs1] + imm) & MASK64
                self._check_pc(target)
                mispredicted = resolve_indirect(
                    pc, target, is_return=inst.is_return
                )
                if rd:
                    regs[rd] = pc + 1
                if inst.is_call:
                    push_return(pc + 1)
                next_pc = target
                complete = slot + lat_alu
                if mispredicted:
                    redirect = complete + mispredict_penalty
                    if redirect > fetch_cursor:
                        branch_redirect_cycles += redirect - fetch_cursor
                        fetch_cursor = redirect
                        fetch_used = 0
            elif kind == K_BARRIER:
                complete = slot if slot > last_mem_complete else last_mem_complete
                if complete > mem_order_barrier:
                    mem_order_barrier = complete
            else:  # NOP
                complete = slot + 1

            if writes_reg and rd:
                reg_complete[rd] = complete

            # ---- commit (in order) -----------------------------------
            # The commit cursor is never behind ``last_commit``, so the
            # commit floor ``max(complete + 1, last_commit)`` passes the
            # cursor exactly when ``complete`` reaches it, and a commit
            # cycle is new exactly when it passes ``last_commit``.
            if complete >= commit_cursor:
                commit_cursor = complete + 1
                commit_used = 0
            commit_time = commit_cursor
            commit_used += 1
            if commit_used >= width:
                commit_cursor += 1
                commit_used = 0
            if sanitizer is not None:
                sanitizer.on_commit(commit_time, last_commit, commit_time)
            if commit_time > last_commit:
                last_commit = commit_time
                commit_cycles_stepped += 1
            rob[rob_at] = commit_time
            iq[iq_at] = slot
            if addr is not None:  # a load or a store
                lsq[lsq_at] = commit_time
                if kind == K_STORE:
                    store_inflight[addr] = (complete, commit_time)
                    # Store drains to the cache after commit.
                    data_access(addr, commit_time, ACC_STORE)

            pc = next_pc
