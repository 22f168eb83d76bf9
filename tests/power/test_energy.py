"""Energy accounting over real runs."""

import pytest

from repro.config import inorder_machine, ooo_machine, sst_machine
from repro.experiments.e13_energy import overhead_share
from repro.power import EnergyWeights, estimate_energy
from repro.power.energy import EnergyBreakdown
from repro.sim.runner import simulate
from repro.workloads import hash_join
from tests.conftest import small_hierarchy_config


@pytest.fixture(scope="module")
def results():
    program = hash_join(table_words=1 << 10, probes=128)
    hierarchy = small_hierarchy_config()
    return {
        name: simulate(machine, program)
        for name, machine in (
            ("inorder", inorder_machine(hierarchy)),
            ("sst", sst_machine(hierarchy)),
            ("ooo", ooo_machine(hierarchy, rob_size=128)),
        )
    }


def test_components_present_per_core_kind(results):
    inorder = estimate_energy(results["inorder"])
    assert "rename" not in inorder.components
    assert "checkpoints" not in inorder.components
    ooo = estimate_energy(results["ooo"])
    assert {"rename", "rob", "issue_queue", "lsq"} <= set(ooo.components)
    sst = estimate_energy(results["sst"])
    assert {"checkpoints", "deferred_queue", "store_buffer"} \
        <= set(sst.components)


def test_totals_positive_and_consistent(results):
    for result in results.values():
        breakdown = estimate_energy(result)
        assert breakdown.total > 0
        assert breakdown.total == pytest.approx(
            sum(breakdown.components.values())
        )
        assert breakdown.energy_per_instruction > 0


def test_ooo_structures_cost_more_per_instruction(results):
    """The paper's power claim: the OoO machinery dominates the SST
    additions, per committed instruction."""
    ooo = estimate_energy(results["ooo"])
    sst = estimate_energy(results["sst"])
    ooo_overhead = sum(ooo.components[k]
                       for k in ("rename", "rob", "issue_queue", "lsq"))
    sst_overhead = sum(sst.components[k]
                       for k in ("checkpoints", "deferred_queue",
                                 "store_buffer", "na_bits"))
    assert (ooo_overhead / ooo.instructions
            > sst_overhead / sst.instructions)


def test_discarded_work_is_charged(results):
    """SST pays energy for issued-then-discarded instructions."""
    sst = estimate_energy(results["sst"])
    stats = results["sst"].extra["sst"]
    issued = stats.normal_insts + stats.ahead_insts + stats.replay_insts
    assert issued >= results["sst"].instructions
    weights = EnergyWeights()
    expected_pipeline = issued * (weights.fetch_decode + weights.alu_op
                                  + 3 * weights.regfile_access)
    assert sst.components["pipeline"] == pytest.approx(expected_pipeline)


def test_ed2_ordering_on_memory_bound_code(results):
    """SST finishes much faster at modest extra power: ED² must beat
    the in-order core on the miss-bound probe loop."""
    inorder = estimate_energy(results["inorder"])
    sst = estimate_energy(results["sst"])
    assert sst.energy_delay_squared < inorder.energy_delay_squared


def test_custom_weights_scale_components(results):
    heavy_dram = EnergyWeights(dram_access=1000.0)
    base = estimate_energy(results["inorder"])
    heavy = estimate_energy(results["inorder"], weights=heavy_dram)
    assert heavy.components["dram"] > base.components["dram"]


def _breakdown(**components):
    return EnergyBreakdown("core", "program", cycles=1, instructions=1,
                           components=components)


# 1e16 + 1.0 rounds back to 1e16, so a plain left-to-right sum of these
# drops both ones; the exact sum keeps them.
INEXACT = dict(rob=1e16, checkpoints=1.0, store_buffer=1.0)


def test_breakdown_total_is_exact():
    assert _breakdown(**INEXACT).total == 1e16 + 2


def test_e13_overhead_share_is_exact():
    breakdown = _breakdown(**INEXACT, alu=1e16)
    assert overhead_share(breakdown) == (1e16 + 2) / (2e16 + 2)
