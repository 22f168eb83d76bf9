"""In-order core timing and architectural correctness."""

import pytest

from repro.baselines.inorder import InOrderCore
from repro.config import SSTConfig
from repro.errors import ExecutionError
from repro.isa.assembler import assemble
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.runner import verify_against_golden
from tests.conftest import small_hierarchy_config


def run(source_or_program, width=2, latency=200, config=None):
    program = (assemble(source_or_program)
               if isinstance(source_or_program, str) else source_or_program)
    hierarchy = MemoryHierarchy(small_hierarchy_config(latency=latency))
    core = InOrderCore(program, hierarchy,
                       config or SSTConfig(width=width, checkpoints=0))
    result = core.run()
    verify_against_golden(result, program)
    return result


def test_architectural_correctness(countdown_program):
    result = run(countdown_program)
    assert result.state.regs[2] == sum(range(1, 11))


def test_width_bounds_throughput():
    # 40 independent ALU ops: 1-wide takes ~40 cycles, 4-wide ~10.
    source = "\n".join(f"movi r{1 + i % 8}, {i}" for i in range(40)) + "\nhalt"
    narrow = run(source, width=1)
    wide = run(source, width=4)
    assert narrow.cycles >= 40
    assert wide.cycles <= narrow.cycles / 2


def test_stall_on_use_pays_full_miss():
    result = run("""
        movi r1, 0x100000
        ld   r2, 0(r1)
        addi r3, r2, 1
        halt
    """, latency=200)
    assert result.cycles > 200


def test_miss_without_use_overlaps_nothing_blocking():
    blocking = run("""
        movi r1, 0x100000
        ld   r2, 0(r1)
        addi r3, r2, 1
        halt
    """, latency=200)
    nonblocking = run("""
        movi r1, 0x100000
        ld   r2, 0(r1)
        movi r3, 1
        halt
    """, latency=200)
    # HALT still drains the load, but the dependent-use version cannot
    # be faster than the independent one.
    assert nonblocking.cycles <= blocking.cycles


def test_dependent_misses_serialise(miss_chain_program):
    result = run(miss_chain_program, latency=200)
    assert result.cycles > 3 * 200
    assert result.state.regs[5] == 8


def test_stores_do_not_stall():
    stores = "movi r1, 0x100000\n" + "\n".join(
        f"st r1, {8 * i}(r1)" for i in range(10)
    ) + "\nmovi r2, 1\nhalt"
    result = run(stores, latency=200)
    # 10 store misses, none blocking: far less than 10 * 200.
    assert result.cycles < 500


def test_membar_waits_for_stores():
    fenced = run("""
        movi r1, 0x100000
        st   r1, 0(r1)
        membar
        movi r2, 1
        halt
    """, latency=200)
    assert fenced.cycles > 200


def test_branch_mispredicts_cost_cycles():
    # Data-dependent alternating branch (period 2 is learnable by
    # gshare, so use an LCG-driven unpredictable one instead).
    source = """
        movi r1, 200
        movi r3, 12345
        movi r4, 6364136223846793005
        movi r5, 1442695040888963407
        movi r6, 0
    loop:
        mul  r3, r3, r4
        add  r3, r3, r5
        srli r7, r3, 33
        andi r7, r7, 1
        beq  r7, r0, skip
        addi r6, r6, 1
    skip:
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    """
    from repro.config import BranchPredictorConfig

    cheap = run(source, config=SSTConfig(
        checkpoints=0,
        predictor=BranchPredictorConfig(mispredict_penalty=0)))
    costly = run(source, config=SSTConfig(
        checkpoints=0,
        predictor=BranchPredictorConfig(mispredict_penalty=20)))
    assert costly.cycles > cheap.cycles + 500


def test_calls_returns_predicted_by_ras():
    source = """
        movi r1, 50
        movi r2, 0
    loop:
        jal  ra, callee
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    callee:
        addi r2, r2, 1
        jalr r0, ra, 0
    """
    result = run(source)
    branch_stats = result.extra["branch"]
    assert branch_stats.ras_hits >= 49
    assert result.state.regs[2] == 50


def test_runaway_budget_enforced(countdown_program):
    hierarchy = MemoryHierarchy(small_hierarchy_config())
    program = assemble("loop: jal r0, loop\nhalt")
    core = InOrderCore(program, hierarchy)
    with pytest.raises(ExecutionError, match="without HALT"):
        core.run(max_instructions=100)


def test_ipc_reported(countdown_program):
    result = run(countdown_program)
    assert 0 < result.ipc <= 2.0
    assert result.instructions == 2 + 3 * 10 + 1
