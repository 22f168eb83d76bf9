"""OoO core: window-limited overlap, disambiguation, redirects."""

import dataclasses

import pytest

from repro.baselines.ooo import OoOCore
from repro.config import BranchPredictorConfig, OoOConfig
from repro.isa.assembler import assemble
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.runner import verify_against_golden
from tests.conftest import full_state_id, small_hierarchy_config


def run(source_or_program, config=None, latency=200, mshr=16):
    program = (assemble(source_or_program)
               if isinstance(source_or_program, str) else source_or_program)
    hierarchy = MemoryHierarchy(small_hierarchy_config(latency=latency,
                                                       mshr=mshr))
    core = OoOCore(program, hierarchy, config or OoOConfig())
    result = core.run()
    verify_against_golden(result, program)
    return result


INDEPENDENT_MISSES = """
    movi r1, 0x100000
    movi r2, 0x200000
    movi r3, 0x300000
    ld   r4, 0(r1)
    ld   r5, 0(r2)
    ld   r6, 0(r3)
    add  r7, r4, r5
    add  r7, r7, r6
    halt
"""


def test_architectural_correctness(countdown_program):
    result = run(countdown_program)
    assert result.state.regs[2] == sum(range(1, 11))


def test_independent_misses_overlap():
    result = run(INDEPENDENT_MISSES, latency=200)
    # Serial would be ~600; overlapped is a bit over one miss.
    assert result.cycles < 400


def test_dependent_misses_serialise(miss_chain_program):
    result = run(miss_chain_program, latency=200)
    assert result.cycles > 3 * 200


def test_rob_size_bounds_overlap():
    # Many independent miss pairs separated by filler: a small ROB
    # cannot hold enough instructions to reach the next miss.
    blocks = []
    for index in range(8):
        blocks.append(f"movi r1, {0x100000 + index * 0x10000}")
        blocks.append("ld r2, 0(r1)")
        blocks.append("add r3, r3, r2")  # use forces eventual wait
        blocks.extend("addi r4, r4, 1" for _ in range(30))
    source = "\n".join(blocks) + "\nhalt"
    small = run(source, OoOConfig(rob_size=16, iq_size=16, lsq_size=16))
    large = run(source, OoOConfig(rob_size=256, iq_size=64, lsq_size=64))
    assert large.cycles < small.cycles * 0.7


STORE_FORWARDING = """
    movi r1, 0x100000
    movi r2, 42
    st   r2, 0(r1)
    ld   r3, 0(r1)
    addi r4, r3, 1
    halt
"""


def test_store_to_load_forwarding():
    result = run(STORE_FORWARDING, latency=300)
    assert result.extra["ooo"].load_forwards >= 1
    # Forwarding means the load does not pay the miss latency twice.
    assert result.state.regs[4] == 43


# A data-dependent branch on a pseudo-random bit mispredicts often.
MISPREDICTING_BRANCH = """
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


def test_mispredicted_branches_stall_fetch():
    cheap = run(MISPREDICTING_BRANCH, OoOConfig(
        predictor=BranchPredictorConfig(mispredict_penalty=0)))
    costly = run(MISPREDICTING_BRANCH, OoOConfig(
        predictor=BranchPredictorConfig(mispredict_penalty=20)))
    assert costly.cycles > cheap.cycles


# r2 and r3 swap every iteration, so the jalr's target alternates
# between ``a`` (index 6) and ``b`` (index 7) and the BTB, which holds
# the last target, mispredicts all 200 jumps.
ALTERNATING_JALR = """
    movi r1, 200
    movi r2, 6
    movi r3, 7
loop:
    jalr r0, r2, 0
    halt
    nop
a:  addi r5, r5, 1
b:  add  r4, r2, r0
    add  r2, r3, r0
    add  r3, r4, r0
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""


def test_indirect_mispredicts_count_redirect_cycles():
    """An indirect jump's redirect counts in ``branch_redirect_cycles``
    (and the ``branch`` stall cause) as a conditional branch's does."""
    for penalty in (0, 20):
        result = run(ALTERNATING_JALR, OoOConfig(
            predictor=BranchPredictorConfig(mispredict_penalty=penalty)))
        mispredicts = result.extra["branch"].indirect_mispredicts
        assert mispredicts == 200
        redirect = result.extra["ooo"].branch_redirect_cycles
        assert redirect >= penalty * mispredicts
        assert result.extra["perf"].stall_cycles["branch"] == redirect


def test_membar_orders_memory():
    result = run("""
        movi r1, 0x100000
        ld   r2, 0(r1)
        membar
        ld   r3, 8(r1)
        halt
    """)
    assert result.cycles > 200  # second load waited for the first


def test_wide_beats_narrow_on_ilp():
    source = "\n".join(
        f"movi r{1 + i % 8}, {i}" for i in range(64)
    ) + "\nhalt"
    narrow = run(source, OoOConfig(width=1, rob_size=32, iq_size=16,
                                   lsq_size=16))
    wide = run(source, OoOConfig(width=4, rob_size=32, iq_size=16,
                                 lsq_size=16))
    assert wide.cycles < narrow.cycles


def test_stats_exposed(countdown_program):
    result = run(countdown_program)
    assert result.extra["ooo"].dispatched == result.instructions - 1
    assert "rob" in result.extra


# A miss at the head of each program holds every later entry of the
# targeted window until it fills; the rest of the program fills that
# window and none of the others.
WINDOW_PREFIX = ["movi r1, 0x100000", "movi r6, 0x200000", "ld r2, 0(r1)"]
WINDOW_PROGRAMS = {
    # Independent ALU work: only the ROB (held to in-order commit) fills.
    "rob": (["addi r4, r4, 1"] * 60,
            OoOConfig(rob_size=16, iq_size=16, lsq_size=16)),
    # Consumers of the missing load: they wait in the IQ to issue.
    "iq": (["add r3, r2, r3"] * 40,
           OoOConfig(rob_size=128, iq_size=8, lsq_size=48)),
    # Independent loads issue, but hold LSQ entries to commit.
    "lsq": ([f"ld r5, {8 * (index % 4)}(r6)" for index in range(40)],
            OoOConfig(rob_size=128, iq_size=48, lsq_size=8)),
}
ROOMY = OoOConfig(rob_size=256, iq_size=128, lsq_size=128)


def window_case(window):
    body, tight = WINDOW_PROGRAMS[window]
    return "\n".join(WINDOW_PREFIX + body + ["halt"]), tight, 200


@pytest.mark.parametrize("window", sorted(WINDOW_PROGRAMS))
def test_full_window_stalls_dispatch(window):
    source, tight, latency = window_case(window)
    stalled = run(source, tight, latency=latency)
    for name in WINDOW_PROGRAMS:
        full_stalls = stalled.extra[name]["full_stalls"]
        if name == window:
            assert full_stalls > 0
            assert stalled.extra[name]["stall_cycles"] >= full_stalls
        else:
            assert full_stalls == 0, name
    roomy = run(source, ROOMY, latency=latency)
    assert all(roomy.extra[name]["full_stalls"] == 0
               for name in WINDOW_PROGRAMS)
    assert roomy.cycles <= stalled.cycles


# Every observable of five programs that exercise each window, store
# forwarding and branch redirects, as literals: a change meant only to
# speed up the loop must reproduce each exactly.
PINNED_CASES = {
    **{window: window_case(window) for window in WINDOW_PROGRAMS},
    "store-forwarding": (STORE_FORWARDING, OoOConfig(), 300),
    "mispredicting-branch": (MISPREDICTING_BRANCH, OoOConfig(
        predictor=BranchPredictorConfig(mispredict_penalty=20)), 200),
}
PINNED = {
    "iq": {
        "cycles": 256, "instructions": 44,
        "rob": {"full_stalls": 0, "stall_cycles": 0},
        "iq": {"full_stalls": 32, "stall_cycles": 7176},
        "lsq": {"full_stalls": 0, "stall_cycles": 0},
        "ooo": {"dispatched": 43, "branch_redirect_cycles": 0,
                "load_forwards": 0},
        "perf": {"cycles_stepped": 42, "cycles_skipped": 214,
                 "fast_forwards": 0, "skip_fraction": 0.835938,
                 "stall_cycles": {"operand": 1995, "issue_port": 0,
                                  "mem_order": 0, "rob": 0, "iq": 7176,
                                  "lsq": 0, "branch": 0}},
    },
    "lsq": {
        "cycles": 231, "instructions": 44,
        "rob": {"full_stalls": 0, "stall_cycles": 0},
        "iq": {"full_stalls": 0, "stall_cycles": 0},
        "lsq": {"full_stalls": 33, "stall_cycles": 7150},
        "ooo": {"dispatched": 43, "branch_redirect_cycles": 0,
                "load_forwards": 0},
        "perf": {"cycles_stepped": 12, "cycles_skipped": 219,
                 "fast_forwards": 0, "skip_fraction": 0.948052,
                 "stall_cycles": {"operand": 2, "issue_port": 2,
                                  "mem_order": 0, "rob": 0, "iq": 0,
                                  "lsq": 7150, "branch": 0}},
    },
    "mispredicting-branch": {
        "cycles": 3683, "instructions": 1502,
        "rob": {"full_stalls": 0, "stall_cycles": 0},
        "iq": {"full_stalls": 0, "stall_cycles": 0},
        "lsq": {"full_stalls": 0, "stall_cycles": 0},
        "ooo": {"dispatched": 1501, "branch_redirect_cycles": 3348,
                "load_forwards": 0},
        "perf": {"cycles_stepped": 1196, "cycles_skipped": 2487,
                 "fast_forwards": 0, "skip_fraction": 0.675265,
                 "stall_cycles": {"operand": 10113, "issue_port": 0,
                                  "mem_order": 0, "rob": 0, "iq": 0,
                                  "lsq": 0, "branch": 3348}},
    },
    "rob": {
        "cycles": 262, "instructions": 64,
        "rob": {"full_stalls": 45, "stall_cycles": 9778},
        "iq": {"full_stalls": 0, "stall_cycles": 0},
        "lsq": {"full_stalls": 0, "stall_cycles": 0},
        "ooo": {"dispatched": 63, "branch_redirect_cycles": 0,
                "load_forwards": 0},
        "perf": {"cycles_stepped": 48, "cycles_skipped": 214,
                 "fast_forwards": 0, "skip_fraction": 0.816794,
                 "stall_cycles": {"operand": 573, "issue_port": 0,
                                  "mem_order": 0, "rob": 9778, "iq": 0,
                                  "lsq": 0, "branch": 0}},
    },
    "store-forwarding": {
        "cycles": 4, "instructions": 6,
        "rob": {"full_stalls": 0, "stall_cycles": 0},
        "iq": {"full_stalls": 0, "stall_cycles": 0},
        "lsq": {"full_stalls": 0, "stall_cycles": 0},
        "ooo": {"dispatched": 5, "branch_redirect_cycles": 0,
                "load_forwards": 1},
        "perf": {"cycles_stepped": 3, "cycles_skipped": 1,
                 "fast_forwards": 0, "skip_fraction": 0.25,
                 "stall_cycles": {"operand": 3, "issue_port": 0,
                                  "mem_order": 0, "rob": 0, "iq": 0,
                                  "lsq": 0, "branch": 0}},
    },
}
STALL_KEYS = ["operand", "issue_port", "mem_order", "rob", "iq", "lsq",
              "branch"]


def observables(result):
    extra = result.extra
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "rob": extra["rob"],
        "iq": extra["iq"],
        "lsq": extra["lsq"],
        "ooo": dataclasses.asdict(extra["ooo"]),
        "perf": extra["perf"].as_dict(),
    }


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_observables_are_pinned(case):
    source, config, latency = PINNED_CASES[case]
    result = run(source, config, latency=latency)
    assert observables(result) == PINNED[case]
    assert list(result.extra["perf"].stall_cycles) == STALL_KEYS


# fp-stream at the small suite scale (49,159 instructions) on
# ooo-4w-rob32 prunes its issue-claim table 4 times at the default
# CLAIM_PRUNE_MIN, keeping about 10 live claims each time.
PRUNED_PIN = {
    "cycles": 360455,
    "instructions": 49159,
    "ooo": {"dispatched": 49158, "branch_redirect_cycles": 348163,
            "load_forwards": 0},
    "perf": {"cycles_stepped": 17411, "cycles_skipped": 343044,
             "fast_forwards": 0, "skip_fraction": 0.951697,
             "stall_cycles": {"operand": 3561387, "issue_port": 1024,
                              "mem_order": 0, "rob": 8553032966,
                              "iq": 4503425, "lsq": 0, "branch": 348163}},
    "state_hash": ("b5909a89d2dc68b357cadd42760ed69beda29a84cf7f252f39"
                   "dab81f7a448b7c"),
}


def _fp_stream_on_rob32():
    from repro.config import ooo_machine
    from repro.experiments.bench_env import BenchEnv
    from repro.sim.machine import Machine
    from repro.workloads import suite

    env = BenchEnv(smoke=True, cache=None, firewall=None)
    program = suite.WORKLOAD_FACTORIES["fp-stream"](
        **suite.suite_params("small")["fp-stream"])
    result = Machine(ooo_machine(env.hierarchy(), rob_size=32)).run(program)
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ooo": dataclasses.asdict(result.extra["ooo"]),
        "perf": result.extra["perf"].as_dict(),
        "state_hash": full_state_id(result.state),
    }


@pytest.mark.parametrize("prune_min", [None, 2, 1 << 40],
                         ids=["default", "every-fetch-group", "never"])
def test_issue_claim_pruning_is_exact(monkeypatch, prune_min):
    """Dropping the issue claims no later instruction can make moves
    nothing, however often it happens."""
    from repro.baselines.ooo import ooo_core

    if prune_min is not None:
        monkeypatch.setattr(ooo_core, "CLAIM_PRUNE_MIN", prune_min)
    assert _fp_stream_on_rob32() == PRUNED_PIN
