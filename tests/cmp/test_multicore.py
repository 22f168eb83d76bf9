"""Multiprogrammed multicore simulation over a shared L2/DRAM."""

import pytest

from repro.baselines.core_base import CoreResult
from repro.cmp import Multicore, MulticoreResult, build_shared_hierarchies
from repro.config import SSTConfig
from repro.errors import ConfigError
from repro.sim.runner import verify_against_golden
from repro.workloads import hash_join, matrix_multiply
from tests.conftest import small_hierarchy_config


def programs(n, **kwargs):
    return [
        hash_join(table_words=1 << 11, probes=96, seed=seed,
                  name=f"hj-{seed}", **kwargs)
        for seed in range(n)
    ]


def test_shared_hierarchies_alias_l2_only():
    hierarchies = build_shared_hierarchies(small_hierarchy_config(), 3)
    first, second, third = hierarchies
    assert second.l2 is first.l2
    assert third.dram is first.dram
    assert second.l1d is not first.l1d
    assert second.l1d_mshr is not first.l1d_mshr


def test_address_offsets_distinct():
    hierarchies = build_shared_hierarchies(small_hierarchy_config(), 3)
    offsets = {h.addr_offset for h in hierarchies}
    assert len(offsets) == 3


def test_single_core_multicore_equals_solo_run():
    """Quantum interleaving of one core must be cycle-exact."""
    from repro import simulate, sst_machine

    hierarchy = small_hierarchy_config()
    program = programs(1)[0]
    solo = simulate(sst_machine(hierarchy), program)
    for quantum in (50, 1000, 10**9):
        multi = Multicore(hierarchy, [SSTConfig()], [program],
                          quantum=quantum).run()
        assert multi.per_core[0].cycles == solo.cycles, quantum


def test_all_cores_golden_verified():
    progs = programs(4)
    result = Multicore(small_hierarchy_config(), [SSTConfig()] * 4,
                       progs, quantum=200).run()
    for core_result, program in zip(result.per_core, progs):
        verify_against_golden(core_result, program)


def test_heterogeneous_cores():
    """An SST core and a zero-checkpoint (in-order) core coexist."""
    progs = programs(2)
    result = Multicore(
        small_hierarchy_config(),
        [SSTConfig(checkpoints=2), SSTConfig(checkpoints=0)],
        progs, quantum=200,
    ).run()
    assert result.per_core[0].core_name.endswith("sst")
    assert result.per_core[1].core_name.endswith("inorder")
    # Same shared machine: the SST core finishes its copy first.
    assert result.per_core[0].cycles < result.per_core[1].cycles


def test_contention_slows_cores_but_raises_throughput():
    hierarchy = small_hierarchy_config()
    program = programs(1)[0]
    solo = Multicore(hierarchy, [SSTConfig()], [program]).run()
    quad = Multicore(hierarchy, [SSTConfig()] * 4, programs(4)).run()
    solo_cycles = solo.per_core[0].cycles
    assert all(r.cycles > solo_cycles for r in quad.per_core)  # contention
    assert quad.aggregate_ipc > solo.aggregate_ipc  # but more gets done
    assert quad.aggregate_ipc < 4 * solo.aggregate_ipc  # and not ideally


def test_different_length_programs():
    progs = [programs(1)[0], matrix_multiply(n=4, name="mm")]
    result = Multicore(small_hierarchy_config(), [SSTConfig()] * 2,
                       progs, quantum=100).run()
    assert result.per_core[0].instructions != result.per_core[1].instructions
    assert result.makespan == max(r.cycles for r in result.per_core)


def test_validation():
    hierarchy = small_hierarchy_config()
    with pytest.raises(ConfigError):
        Multicore(hierarchy, [], [], quantum=10)
    with pytest.raises(ConfigError):
        Multicore(hierarchy, [SSTConfig()], [], quantum=10)
    with pytest.raises(ConfigError):
        Multicore(hierarchy, [SSTConfig()], programs(1), quantum=0)
    with pytest.raises(ConfigError):
        build_shared_hierarchies(hierarchy, 0)


def test_result_accounting():
    progs = programs(2)
    result = Multicore(small_hierarchy_config(), [SSTConfig()] * 2,
                       progs, quantum=150).run()
    assert result.cores == 2
    assert result.total_instructions == sum(
        r.instructions for r in result.per_core
    )
    assert result.quantum == 150


def test_idle_quantum_skip_is_cycle_exact():
    """Telescoped idle quanta must not perturb any core's timing.

    ``max_cycles`` disables the fast-forward (the cap is checked at
    every quantum boundary), so a capped run gives the
    quantum-by-quantum reference schedule to compare against.
    """
    progs = programs(3)
    hierarchy = small_hierarchy_config()
    for quantum in (25, 200):
        fast = Multicore(hierarchy, [SSTConfig()] * 3, progs,
                         quantum=quantum).run()
        reference = Multicore(hierarchy, [SSTConfig()] * 3, progs,
                              quantum=quantum).run(max_cycles=10 ** 9)
        assert reference.idle_quanta_skipped == 0
        assert fast.idle_quanta_skipped > 0
        for skipped, stepped in zip(fast.per_core, reference.per_core):
            assert skipped.cycles == stepped.cycles
            assert skipped.instructions == stepped.instructions
            assert skipped.state.regs == stepped.state.regs


def test_aggregate_ipc_is_an_exact_sum():
    # IPCs of 1e16, 1 and 1: a plain left-to-right sum drops both ones.
    per_core = [CoreResult("core", "program", cycles=1,
                           instructions=instructions, state=None)
                for instructions in (10 ** 16, 1, 1)]
    result = MulticoreResult(per_core=per_core, quantum=1)
    assert result.aggregate_ipc == 1e16 + 2
