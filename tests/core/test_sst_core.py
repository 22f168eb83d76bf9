"""Behavioural tests of the SST core: episodes, deferral, the two
strands, scout degradation, speculation failures, and commit/rollback
architectural correctness.  Every run is checked against the golden
interpreter."""

import pytest

from repro.config import SSTConfig
from repro.core import ExecMode, FailCause, ScoutCause, SSTCore, sst_dispatch
from repro.errors import ExecutionError
from repro.isa.assembler import assemble
from repro.isa.builder import ProgramBuilder
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.runner import verify_against_golden
from tests.conftest import small_hierarchy_config

MISS_ADDR = 0x100000


def run(source_or_program, config=None, latency=200, mshr=16):
    program = (assemble(source_or_program)
               if isinstance(source_or_program, str) else source_or_program)
    hierarchy = MemoryHierarchy(small_hierarchy_config(latency=latency,
                                                       mshr=mshr))
    core = SSTCore(program, hierarchy, config or SSTConfig())
    result = core.run()
    verify_against_golden(result, program)
    return result


def sst_stats(result):
    return result.extra["sst"]


# ----------------------------------------------------------------------
# Engine selection.
# ----------------------------------------------------------------------

def test_observers_select_the_instrumented_generated_loop(monkeypatch):
    """Every core with a checkpoint runs a generated speculative loop,
    chosen once at construction: the cached plain loop (the one a two-argument
    ``compile_spec_loop`` call returns) unless an observer is attached."""
    def build():
        return SSTCore(assemble("halt"),
                       MemoryHierarchy(small_hierarchy_config()),
                       SSTConfig())

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_TAINT", raising=False)
    plain = build()
    penalty = plain.branch_unit.mispredict_penalty
    assert plain._spec_loop_fn is sst_dispatch.compile_spec_loop(
        plain.config, penalty)
    instrumented = sst_dispatch.compile_spec_loop(plain.config, penalty,
                                                  instrumented=True)
    assert instrumented is not plain._spec_loop_fn
    for knob in ("REPRO_SANITIZE", "REPRO_TAINT"):
        monkeypatch.setenv(knob, "1")
        assert build()._spec_loop_fn is instrumented
        monkeypatch.delenv(knob)


def test_generated_sources_name_no_kind_code():
    """The kind codes and ``NO_WAKE`` are literals in every source the
    loop generator emits: each combination of its four flags, so each
    loop a smoke run (or any run) compiles, at widths 1, 2 and 4."""
    import itertools
    import re

    from repro.core import sst_core

    names = re.compile(r"\b(K_[A-Z_]+|NO_WAKE)\b")
    sources = set()
    for width, *flags in itertools.product((1, 2, 4), *[(False, True)] * 4):
        bypass, tlb, l1, instrumented = flags
        source = sst_dispatch._build_source(
            width, bypass, tlb, l1, penalty=5, instrumented=instrumented)
        assert names.search(source) is None, (width, flags)
        assert f"core._commit_stall = {sst_core._NO_WAKE}" in source
        sources.add(source)
    assert len(sources) == 48


def test_scout_ea_and_sst_of_one_width_share_a_loop():
    """The loop's flags name no speculation policy, so the scout, EA
    and SST presets of one width run one generated loop."""
    from repro.config import ea_machine, scout_machine, sst_machine

    for width in (1, 2, 4):
        loops = {
            SSTCore(assemble("halt"),
                    MemoryHierarchy(small_hierarchy_config()),
                    preset(width=width).sst)._spec_loop_fn
            for preset in (scout_machine, ea_machine, sst_machine)
        }
        assert len(loops) == 1, width


def test_checkpoint_free_cores_generate_no_loop(monkeypatch,
                                                countdown_program):
    """A core with no checkpoint never enters an episode, so it builds
    no loop for one: the in-order baseline, and the in-order cores of
    the multicore experiments."""
    from repro.baselines.inorder import InOrderCore

    def refuse(*args, **kwargs):
        raise AssertionError("generated a speculative loop")

    monkeypatch.setattr(sst_dispatch, "compile_spec_loop", refuse)
    for core in (
        InOrderCore(countdown_program,
                    MemoryHierarchy(small_hierarchy_config())),
        SSTCore(countdown_program,
                MemoryHierarchy(small_hierarchy_config()),
                SSTConfig(checkpoints=0)),
    ):
        verify_against_golden(core.run(), countdown_program)


# ----------------------------------------------------------------------
# Episode lifecycle.
# ----------------------------------------------------------------------

def test_no_misses_no_episodes(countdown_program):
    result = run(countdown_program)
    stats = sst_stats(result)
    assert stats.episodes == 0
    assert result.state.regs[2] == sum(range(1, 11))


def test_miss_triggers_episode_and_commits():
    result = run(f"""
        movi r1, {MISS_ADDR}
        ld   r2, 0(r1)
        addi r3, r2, 1
        movi r4, 7
        halt
    """)
    stats = sst_stats(result)
    assert stats.episodes == 1
    assert stats.full_commits == 1
    assert stats.deferred >= 1  # the dependent addi
    assert stats.total_fails == 0


def test_independent_work_overlaps_the_miss():
    filler = "\n".join("addi r4, r4, 1" for _ in range(100))
    source = f"""
        movi r1, {MISS_ADDR}
        ld   r2, 0(r1)
        {filler}
        addi r3, r2, 1
        halt
    """
    result = run(source, latency=200)
    # 100 independent instructions executed under the miss: total stays
    # close to one miss latency, far under miss + 100/width.
    assert result.cycles < 200 + 120
    assert sst_stats(result).ahead_insts >= 100


def test_independent_misses_create_mlp():
    source = f"""
        movi r1, {MISS_ADDR}
        movi r2, {MISS_ADDR + 0x10000}
        movi r3, {MISS_ADDR + 0x20000}
        ld   r4, 0(r1)
        ld   r5, 0(r2)
        ld   r6, 0(r3)
        add  r7, r4, r5
        add  r7, r7, r6
        halt
    """
    result = run(source, latency=200)
    assert result.cycles < 2 * 200  # three misses overlapped
    assert sst_stats(result).peak_outstanding_misses >= 2


def test_dependent_misses_cannot_overlap(miss_chain_program):
    result = run(miss_chain_program, latency=200)
    assert result.cycles > 3 * 200
    assert result.state.regs[5] == 8


def test_committed_instruction_count_matches_golden(countdown_program):
    from repro.isa.interpreter import Interpreter

    golden = Interpreter(countdown_program)
    golden.run()
    result = run(countdown_program)
    assert result.instructions == golden.stats.instructions


def test_committed_count_with_speculation():
    from repro.isa.interpreter import Interpreter

    program = assemble(f"""
        movi r1, {MISS_ADDR}
        ld   r2, 0(r1)
        addi r3, r2, 1
        addi r4, r4, 2
        halt
    """)
    golden = Interpreter(program)
    golden.run()
    result = run(program)
    assert result.instructions == golden.stats.instructions


# ----------------------------------------------------------------------
# EA vs SST: the second checkpoint is what buys concurrency.
# ----------------------------------------------------------------------

def _probe_loop_program(probes=48):
    """Independent-miss loop: each iteration misses a distinct line."""
    builder = ProgramBuilder("probe-loop")
    builder.movi(1, probes)
    builder.movi(2, MISS_ADDR)
    builder.movi(7, 0)
    builder.label("loop")
    builder.ld(9, 2, 0)
    builder.add(7, 7, 9)  # dependent -> deferred
    builder.addi(2, 2, 0x1040)  # stride chosen to spread cache sets
    builder.addi(1, 1, -1)
    builder.bne(1, 0, "loop")
    builder.halt()
    return builder.build()


def test_sst_beats_ea_on_independent_miss_loop():
    # Enough probes that the DQ fills while misses are outstanding:
    # EA must pause the ahead strand to drain it, SST drains while the
    # ahead strand keeps issuing new probes.  Both reach scout when the
    # DQ fills before a drain.
    program = _probe_loop_program(probes=150)
    ea = run(program, SSTConfig(checkpoints=1, dq_size=48, sb_size=32),
             mshr=32)
    sst = run(program, SSTConfig(checkpoints=2, dq_size=48, sb_size=32),
              mshr=32)
    assert sst.cycles < ea.cycles
    assert sst_stats(sst).region_commits >= 1
    assert sst_stats(ea).region_commits == 0


def test_ea_replay_pauses_ahead_strand():
    program = _probe_loop_program()
    ea = run(program, SSTConfig(checkpoints=1, dq_size=64, sb_size=32))
    modes = sst_stats(ea).mode_cycles
    assert modes[ExecMode.REPLAY_ONLY.value] > 0
    assert modes[ExecMode.SST.value] == 0


def test_sst_mode_cycles_recorded():
    program = _probe_loop_program()
    sst = run(program, SSTConfig(checkpoints=2, dq_size=64, sb_size=32))
    modes = sst_stats(sst).mode_cycles
    assert modes[ExecMode.SST.value] > 0


def test_mode_cycles_sum_to_total():
    program = _probe_loop_program()
    result = run(program)
    assert sum(sst_stats(result).mode_cycles.values()) == result.cycles


def test_more_checkpoints_never_hurt():
    program = _probe_loop_program()
    cycles = [
        run(program, SSTConfig(checkpoints=k, dq_size=64, sb_size=32)).cycles
        for k in (1, 2, 4)
    ]
    assert cycles[1] <= cycles[0]
    assert cycles[2] <= cycles[1] * 1.05


# ----------------------------------------------------------------------
# Degenerate configurations.
# ----------------------------------------------------------------------

def test_zero_checkpoints_is_plain_inorder(countdown_program, miss_chain_program):
    from repro.baselines.inorder import InOrderCore
    from repro.config import InOrderConfig

    for program in (countdown_program, miss_chain_program):
        hierarchy = MemoryHierarchy(small_hierarchy_config())
        inorder = InOrderCore(program, hierarchy, InOrderConfig()).run()
        sst0 = run(program, SSTConfig(checkpoints=0))
        assert sst0.cycles == inorder.cycles
        assert "sst" not in sst0.extra


def test_scout_only_always_rolls_back():
    program = _probe_loop_program(probes=24)
    result = run(program, SSTConfig(checkpoints=1, scout_only=True))
    stats = sst_stats(result)
    assert stats.scout_sessions[ScoutCause.SCOUT_ONLY] >= 1
    assert stats.full_commits == 0
    assert stats.region_commits == 0
    assert stats.scout_prefetches > 0


def test_scout_still_beats_inorder_via_warm_cache():
    from repro.baselines.inorder import InOrderCore
    from repro.config import InOrderConfig

    program = _probe_loop_program(probes=24)
    hierarchy = MemoryHierarchy(small_hierarchy_config())
    inorder = InOrderCore(program, hierarchy, InOrderConfig()).run()
    scout = run(program, SSTConfig(checkpoints=1, scout_only=True))
    assert scout.cycles < inorder.cycles * 0.75


# ----------------------------------------------------------------------
# Resource exhaustion -> scout.
# ----------------------------------------------------------------------

def _scout_timing(result):
    """What a mid-cycle scout entry must keep exact: the run's cycles,
    its mode partition and the stepping counters."""
    perf = result.extra["perf"]
    return (result.cycles, sst_stats(result).mode_cycles,
            perf.cycles_stepped, perf.cycles_skipped, perf.fast_forwards)


def test_dq_overflow_enters_scout():
    """A full DQ enters scout from execute-ahead mid-cycle; that cycle
    finishes in the scout section with the slots and wake it has left,
    so the stepping counters match a loop that runs both sections."""
    program = _probe_loop_program(probes=64)
    result = run(program, SSTConfig(checkpoints=2, dq_size=4, sb_size=32))
    assert sst_stats(result).scout_sessions[ScoutCause.DQ_FULL] >= 1
    assert _scout_timing(result) == (
        928, {"normal": 707, "execute_ahead": 12, "sst": 0,
              "replay_only": 0, "scout": 209}, 388, 589, 129)


def test_sb_overflow_enters_scout():
    stores = "\n".join(f"st r2, {8 * i}(r1)" for i in range(24))
    source = f"""
        movi r1, {MISS_ADDR}
        ld   r2, 0(r1)
        movi r3, {MISS_ADDR + 0x40000}
        ld   r4, 0(r3)
        {stores}
        halt
    """
    result = run(source, SSTConfig(checkpoints=2, dq_size=32, sb_size=4))
    assert sst_stats(result).scout_sessions[ScoutCause.SB_FULL] >= 1
    assert _scout_timing(result) == (
        447, {"normal": 225, "execute_ahead": 4, "sst": 0,
              "replay_only": 0, "scout": 218}, 31, 200, 3)


def test_tiny_dq_still_correct_with_and_without_scout():
    """A one-entry DQ and store buffer fill at once, so episodes
    degrade to scout, and the run still ends in the golden state."""
    program = _probe_loop_program(probes=40)
    result = run(program, SSTConfig(checkpoints=2, dq_size=1, sb_size=1))
    assert sst_stats(result).scout_sessions[ScoutCause.DQ_FULL] >= 1


# ----------------------------------------------------------------------
# Deferred branches.
# ----------------------------------------------------------------------

BRANCH_ON_MISS = f"""
    .data {MISS_ADDR:#x}: %VALUE%
    movi r1, {MISS_ADDR}
    ld   r2, 0(r1)
    bne  r2, r0, taken
    movi r3, 7
    halt
taken:
    movi r3, 9
    halt
"""


def test_deferred_branch_correct_prediction_commits():
    # gshare counters initialise weakly-taken: predicting "taken" for a
    # branch that IS taken validates and the episode commits.
    result = run(BRANCH_ON_MISS.replace("%VALUE%", "1"))
    stats = sst_stats(result)
    assert stats.deferred_branches >= 1
    assert stats.total_fails == 0
    assert result.state.regs[3] == 9


def test_deferred_branch_mispredict_rolls_back():
    result = run(BRANCH_ON_MISS.replace("%VALUE%", "0"))
    stats = sst_stats(result)
    assert stats.fails[FailCause.DEFERRED_BRANCH_MISPREDICT] == 1
    assert stats.discarded_insts > 0
    assert result.state.regs[3] == 7  # correct path after rollback


def test_wrong_path_fault_is_contained():
    """A predicted wrong path may do illegal things; rollback hides it."""
    source = f"""
        .data {MISS_ADDR:#x}: 0
        movi r1, {MISS_ADDR}
        movi r5, 3
        ld   r2, 0(r1)
        bne  r2, r0, bad      ; actual: not taken; predicted: taken
        movi r3, 7
        halt
    bad:
        ld   r4, 0(r5)        ; misaligned load on the wrong path
        halt
    """
    result = run(source)
    assert result.state.regs[3] == 7
    assert sst_stats(result).fails[FailCause.DEFERRED_BRANCH_MISPREDICT] == 1


def test_real_fault_on_committed_path_raises():
    source = f"""
        movi r1, {MISS_ADDR}
        ld   r2, 0(r1)
        addi r3, r2, 3
        ld   r4, 0(r3)        ; misaligned for real (r2 = 0 -> addr 3)
        halt
    """
    program = assemble(source)
    hierarchy = MemoryHierarchy(small_hierarchy_config())
    core = SSTCore(program, hierarchy, SSTConfig())
    with pytest.raises(ExecutionError, match="misaligned"):
        core.run()


# ----------------------------------------------------------------------
# Deferred indirect jumps.
# ----------------------------------------------------------------------

def _deferred_jump_program():
    """Two indirect jumps through missing loads, to different targets:
    the first has no BTB prediction (ahead stalls, replay resumes); the
    second is predicted with the stale first target and fails."""
    builder = ProgramBuilder("deferred-jump")
    builder.movi(1, MISS_ADDR)
    builder.movi(10, 2)  # outer counter
    builder.movi(3, 0)
    builder.movi(4, 0)
    loop = builder.label("loop")
    builder.ld(2, 1, 0)  # miss -> NA target register
    builder.jalr(0, 2, 0)
    t1 = builder.here
    builder.addi(3, 3, 1)
    builder.jal(0, "join")
    t2 = builder.here
    builder.addi(4, 4, 1)
    builder.label("join")
    builder.movi(11, 0x10000)
    builder.add(1, 1, 11)
    builder.addi(10, 10, -1)
    builder.bne(10, 0, "loop")
    builder.halt()
    builder.data_word(MISS_ADDR, t1)
    builder.data_word(MISS_ADDR + 0x10000, t2)
    return builder.build()


def test_deferred_jump_resume_and_mispredict():
    result = run(_deferred_jump_program())
    stats = sst_stats(result)
    assert stats.deferred_jumps >= 2
    assert stats.fails[FailCause.DEFERRED_JUMP_MISPREDICT] == 1
    assert result.state.regs[3] == 1
    assert result.state.regs[4] == 1


# ----------------------------------------------------------------------
# Speculative stores and memory ordering.
# ----------------------------------------------------------------------

def test_store_forwarding_inside_episode():
    result = run(f"""
        movi r1, {MISS_ADDR}
        movi r5, {MISS_ADDR + 0x40000}
        ld   r2, 0(r1)        ; trigger
        movi r3, 42
        st   r3, 0(r5)        ; speculative store
        ld   r4, 0(r5)        ; must forward 42 from the SB
        addi r6, r4, 1
        halt
    """)
    assert result.state.regs[6] == 43
    assert sst_stats(result).total_fails == 0


MEM_ORDER_SOURCE = f"""
    .data {MISS_ADDR:#x}: {MISS_ADDR + 0x40000:#x}
    .data {MISS_ADDR + 0x40000:#x}: 5
    movi r1, {MISS_ADDR}
    movi r5, {MISS_ADDR + 0x40000}
    movi r3, 99
    ld   r2, 0(r1)        ; miss: r2 = {MISS_ADDR + 0x40000:#x}
    st   r3, 0(r2)        ; store with NA address
    ld   r4, 0(r5)        ; same address! bypass reads stale 5
    add  r6, r4, r0
    halt
"""


def test_bypass_detects_memory_order_violation():
    result = run(MEM_ORDER_SOURCE,
                 SSTConfig(bypass_unresolved_stores=True))
    stats = sst_stats(result)
    assert stats.fails[FailCause.MEMORY_ORDER_VIOLATION] == 1
    assert result.state.regs[6] == 99  # correct after rollback


def test_conservative_defers_instead_of_violating():
    result = run(MEM_ORDER_SOURCE,
                 SSTConfig(bypass_unresolved_stores=False))
    stats = sst_stats(result)
    assert stats.fails[FailCause.MEMORY_ORDER_VIOLATION] == 0
    assert stats.order_deferred >= 1
    assert result.state.regs[6] == 99


def test_bypass_of_disjoint_address_succeeds():
    source = f"""
        .data {MISS_ADDR:#x}: {MISS_ADDR + 0x40000:#x}
        movi r1, {MISS_ADDR}
        movi r5, {MISS_ADDR + 0x50000}
        movi r3, 99
        ld   r2, 0(r1)
        st   r3, 0(r2)        ; NA-address store (resolves elsewhere)
        ld   r4, 0(r5)        ; different address: bypass is safe
        add  r6, r4, r0
        halt
    """
    result = run(source, SSTConfig(bypass_unresolved_stores=True))
    assert sst_stats(result).total_fails == 0


def test_deferred_store_value():
    result = run(f"""
        movi r1, {MISS_ADDR}
        movi r5, {MISS_ADDR + 0x40000}
        ld   r2, 0(r1)
        st   r2, 0(r5)        ; NA data -> deferred store
        halt
    """)
    assert result.state.memory.read(MISS_ADDR + 0x40000) == 0


# ----------------------------------------------------------------------
# MEMBAR and HALT inside speculation.
# ----------------------------------------------------------------------

def test_membar_inside_episode_commits_first():
    result = run(f"""
        movi r1, {MISS_ADDR}
        ld   r2, 0(r1)
        addi r3, r2, 1
        membar
        addi r4, r3, 1
        halt
    """)
    stats = sst_stats(result)
    assert stats.full_commits >= 1
    assert result.state.regs[4] == 2


def test_halt_inside_episode_drains():
    result = run(f"""
        movi r1, {MISS_ADDR}
        movi r5, {MISS_ADDR + 0x40000}
        ld   r2, 0(r1)
        addi r3, r2, 1
        st   r3, 0(r5)
        halt
    """)
    assert result.state.memory.read(MISS_ADDR + 0x40000) == 1
    assert result.cycles >= 200


# ----------------------------------------------------------------------
# Budget enforcement.
# ----------------------------------------------------------------------

def test_runaway_budget_enforced():
    program = assemble("loop: jal r0, loop\nhalt")
    hierarchy = MemoryHierarchy(small_hierarchy_config())
    core = SSTCore(program, hierarchy, SSTConfig())
    with pytest.raises(ExecutionError, match="without HALT"):
        core.run(max_instructions=500)
