"""Out-of-order core timing model.

A window-constrained dataflow model, the standard fast abstraction of a
rename + ROB + issue-queue + LSQ machine:

* **Rename** is implicit: operands link to their *producing dynamic
  instruction's* completion time, so false dependences never stall —
  exactly what a physical rename stage buys.
* **ROB**: instruction ``i`` cannot dispatch until ``i - rob_size`` has
  committed; commit is in order and ``commit_width`` per cycle.
* **Issue queue**: entry held from dispatch to issue; ``issue_width``
  instructions start execution per cycle.
* **LSQ**: memory ops hold an entry to commit; loads either wait for
  all older store addresses (conservative) or, with
  ``perfect_disambiguation``, only for a same-address store's data
  (oracle forwarding — an upper bound that makes the SST comparison
  conservative).
* **Branches** resolve at execute; a mispredict stalls fetch until
  resolution plus the redirect penalty.

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
from collections import defaultdict, deque
from typing import Dict

from repro.analysis.sanitizer import make_sanitizer
from repro.baselines.core_base import (
    Core,
    CoreResult,
    DEFAULT_MAX_INSTRUCTIONS,
)
from repro.branch import BranchUnit
from repro.config import OoOConfig
from repro.core.timing import PerfCounters
from repro.isa import blockcache
from repro.isa.program import Program
from repro.isa.registers import REG_COUNT
from repro.isa.semantics import MASK64
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.request import AccessType

# Store-to-load forwarding latency inside the LSQ.
FORWARD_LATENCY = 1


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
        latencies = config.latencies
        hierarchy = self.hierarchy
        branch_unit = self.branch_unit

        # Structural-hazard state, kept in locals because each update is
        # a handful of integer operations and a call per structure per
        # dynamic instruction would cost more than the work:
        # * fetch and commit bandwidth are forward-only cursors: at most
        #   ``width`` claims per cycle, never before the requested cycle;
        # * issue ports are a per-cycle claim count, because out-of-order
        #   issue asks for slots in any time order;
        # * the ROB, IQ and LSQ are K-entry windows, each a deque of
        #   release cycles: once K entries are held, a dispatch waits
        #   for the oldest entry's release (ROB and LSQ entries are
        #   released at commit, IQ entries at issue).  A dispatch that
        #   waits counts one ``full_stalls`` and its wait in
        #   ``stall_cycles``.
        fetch_width = config.fetch_width
        fetch_cursor = 0  # forward-moving bandwidth cursor
        fetch_used = 0
        commit_width = config.commit_width
        commit_cursor = 0
        commit_used = 0
        issue_width = config.issue_width
        issue_used = defaultdict(int)  # cycle -> issue ports claimed
        rob_size = config.rob_size
        iq_size = config.iq_size
        lsq_size = config.lsq_size
        rob_releases: deque = deque()
        iq_releases: deque = deque()
        lsq_releases: deque = deque()
        rob_full_stalls = rob_stall_cycles = 0
        iq_full_stalls = iq_stall_cycles = 0
        lsq_full_stalls = lsq_stall_cycles = 0

        # Hot-loop locals (see inorder.py): one dynamic instruction per
        # iteration, tens of millions of iterations per point.  Decode
        # comes from the block cache's flat rows.
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
        is_call = self.is_call
        is_return = self.is_return
        rob_pop = rob_releases.popleft
        rob_append = rob_releases.append
        iq_pop = iq_releases.popleft
        iq_append = iq_releases.append
        lsq_pop = lsq_releases.popleft
        lsq_append = lsq_releases.append
        lat_alu = latencies.alu
        lat_mul = latencies.mul
        lat_div = latencies.div
        perfect_disambiguation = config.perfect_disambiguation
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
        fetch_barrier = 0  # branch redirects
        last_commit = 0
        executed = 0
        pc = 0

        # Observability (never feeds back into timing).  Window-full
        # attribution is the ROB/IQ/LSQ stall counters above, copied
        # into ``stalls`` at HALT; the waits measured here are
        # per-instruction and may overlap in time, so they are an
        # *attribution* of waiting, not a partition of the cycle count.
        stalls = {"operand": 0, "issue_port": 0, "mem_order": 0}
        perf = PerfCounters(stall_cycles=stalls)
        dispatched = 0
        load_forwards = 0
        branch_redirect_cycles = 0
        commit_cycles_stepped = 0
        last_commit_cycle_seen = -1
        sanitizer = self.sanitizer

        while True:
            if executed >= max_instructions:
                self._check_budget(executed, max_instructions)
            if pc < 0 or pc >= n_insts:
                self._check_pc(pc)
            (kind, rd, rs1, rs2, imm, target, fn, sources,
             writes_reg, uses_imm, inst) = rows[pc]
            executed += 1

            # ---- front end -------------------------------------------
            if fetch_barrier > fetch_cursor:
                fetch_cursor = fetch_barrier
                fetch_used = 0
            fetch_slot = fetch_cursor
            fetch_used += 1
            if fetch_used >= fetch_width:
                fetch_cursor += 1
                fetch_used = 0

            if kind == K_HALT:
                cycles = max(last_commit, fetch_slot, 1)
                if sanitizer is not None:
                    sanitizer.on_halt(executed, regs, state.memory, cycles)
                stats = self.stats
                stats.dispatched = dispatched
                stats.load_forwards = load_forwards
                stats.branch_redirect_cycles = branch_redirect_cycles
                stalls["rob"] = rob_stall_cycles
                stalls["iq"] = iq_stall_cycles
                stalls["lsq"] = lsq_stall_cycles
                stalls["branch"] = branch_redirect_cycles
                perf.cycles_stepped = commit_cycles_stepped
                perf.cycles_skipped = max(cycles - commit_cycles_stepped, 0)
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

            # ---- dispatch (ROB/IQ/LSQ occupancy) ---------------------
            dispatch = fetch_slot
            if len(rob_releases) >= rob_size:
                blocking = rob_releases[0]
                if blocking > dispatch:
                    rob_full_stalls += 1
                    rob_stall_cycles += blocking - dispatch
                    dispatch = blocking
                rob_pop()
            if len(iq_releases) >= iq_size:
                blocking = iq_releases[0]
                if blocking > dispatch:
                    iq_full_stalls += 1
                    iq_stall_cycles += blocking - dispatch
                    dispatch = blocking
                iq_pop()
            if kind == K_LOAD or kind == K_STORE:
                if len(lsq_releases) >= lsq_size:
                    blocking = lsq_releases[0]
                    if blocking > dispatch:
                        lsq_full_stalls += 1
                        lsq_stall_cycles += blocking - dispatch
                        dispatch = blocking
                    lsq_pop()
            dispatched += 1
            if sanitizer is not None:
                sanitizer.on_dispatch(
                    len(rob_releases), len(iq_releases),
                    len(lsq_releases), config, dispatch,
                )

            # ---- operand readiness -----------------------------------
            ready = dispatch
            for src in sources:
                if reg_complete[src] > ready:
                    ready = reg_complete[src]
            if ready > dispatch:
                stalls["operand"] += ready - dispatch

            next_pc = pc + 1
            addr = None
            if kind == K_LOAD:
                ordered = ready
                if mem_order_barrier > ordered:
                    ordered = mem_order_barrier
                if not perfect_disambiguation:
                    if latest_store_ready > ordered:
                        ordered = latest_store_ready
                if ordered > ready:
                    stalls["mem_order"] += ordered - ready
                    ready = ordered
            elif kind == K_STORE:
                if mem_order_barrier > ready:
                    stalls["mem_order"] += mem_order_barrier - ready
                    ready = mem_order_barrier

            slot = ready
            while issue_used[slot] >= issue_width:
                slot += 1
            issue_used[slot] += 1
            if slot > ready:
                stalls["issue_port"] += slot - ready

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
                    redirect = complete + mispredict_penalty
                    peek = (fetch_barrier if fetch_barrier > fetch_cursor
                            else fetch_cursor)
                    lost = redirect - peek
                    if lost > 0:
                        branch_redirect_cycles += lost
                    if redirect > fetch_barrier:
                        fetch_barrier = redirect
            elif kind == K_JUMP:
                if rd:
                    regs[rd] = pc + 1
                if is_call(inst):
                    push_return(pc + 1)
                next_pc = target
                complete = slot + 1
            elif kind == K_JUMP_INDIRECT:
                target = (regs[rs1] + imm) & MASK64
                self._check_pc(target)
                mispredicted = resolve_indirect(
                    pc, target, is_return=is_return(inst)
                )
                if rd:
                    regs[rd] = pc + 1
                if is_call(inst):
                    push_return(pc + 1)
                next_pc = target
                complete = slot + lat_alu
                if mispredicted:
                    redirect = complete + mispredict_penalty
                    if redirect > fetch_barrier:
                        fetch_barrier = redirect
            elif kind == K_BARRIER:
                complete = slot if slot > last_mem_complete else last_mem_complete
                if complete > mem_order_barrier:
                    mem_order_barrier = complete
            else:  # NOP
                complete = slot + 1

            if writes_reg and rd:
                reg_complete[rd] = complete

            # ---- commit (in order) -----------------------------------
            commit_floor = complete + 1
            if last_commit > commit_floor:
                commit_floor = last_commit
            if commit_floor > commit_cursor:
                commit_cursor = commit_floor
                commit_used = 0
            commit_time = commit_cursor
            commit_used += 1
            if commit_used >= commit_width:
                commit_cursor += 1
                commit_used = 0
            if sanitizer is not None:
                sanitizer.on_commit(commit_time, last_commit, commit_time)
            if commit_time > last_commit:
                last_commit = commit_time
            if commit_time != last_commit_cycle_seen:
                last_commit_cycle_seen = commit_time
                commit_cycles_stepped += 1
            rob_append(commit_time)
            iq_append(slot)
            if kind == K_LOAD:
                lsq_append(commit_time)
            elif kind == K_STORE:
                lsq_append(commit_time)
                if addr is not None:
                    store_inflight[addr] = (complete, commit_time)
                    # Store drains to the cache after commit.
                    data_access(addr, commit_time, ACC_STORE)

            pc = next_pc
