"""Area model and bandwidth-capped chip throughput."""

import pytest

from repro.config import (
    OoOConfig,
    SSTConfig,
    inorder_machine,
    sst_machine,
)
from repro.power import AreaWeights, chip_throughput, core_area, cores_per_die
from repro.power.cmp import measured_bandwidth
from repro.sim.runner import simulate
from repro.workloads import hash_join, matrix_multiply
from tests.conftest import small_hierarchy_config


def test_area_ordering():
    """inorder < SST << OoO — the paper's area claim."""
    inorder = core_area(SSTConfig(width=2, checkpoints=0))
    sst = core_area(SSTConfig(width=2))
    ooo = core_area(OoOConfig(rob_size=128, iq_size=42, lsq_size=42))
    # The in-order core pays no checkpoint, DQ or store buffer.
    weights = AreaWeights()
    assert inorder == weights.inorder_base + weights.per_extra_width
    assert inorder < sst < ooo
    assert sst < inorder * 1.8  # SST is a modest adder
    assert ooo > inorder * 2.0  # OoO is not


def test_area_scales_with_structures():
    small = core_area(SSTConfig(dq_size=16, sb_size=8))
    big = core_area(SSTConfig(dq_size=128, sb_size=64))
    assert big > small
    assert core_area(OoOConfig(rob_size=32, iq_size=16, lsq_size=16)) \
        < core_area(OoOConfig(rob_size=256, iq_size=80, lsq_size=80))


def test_core_area_rejects_unknown():
    with pytest.raises(TypeError):
        core_area(object())


def test_cores_per_die():
    config = SSTConfig(width=2, checkpoints=0)
    area = core_area(config)
    assert cores_per_die(config, die_budget=10 * area) == 10
    with pytest.raises(ValueError):
        cores_per_die(config, die_budget=0)


def test_measured_bandwidth_higher_for_miss_bound():
    hierarchy = small_hierarchy_config()
    missy = simulate(inorder_machine(hierarchy),
                     hash_join(table_words=1 << 12, probes=256))
    cachey = simulate(inorder_machine(hierarchy), matrix_multiply(n=8))
    assert measured_bandwidth(missy) > measured_bandwidth(cachey)


def test_chip_throughput_scales_then_saturates():
    hierarchy = small_hierarchy_config()
    result = simulate(sst_machine(hierarchy),
                      hash_join(table_words=1 << 12, probes=256))
    bandwidth = measured_bandwidth(result)
    assert bandwidth > 0
    limit = bandwidth * 4  # channel feeds exactly four cores
    four = chip_throughput(result, cores=4, chip_bw_limit=limit)
    eight = chip_throughput(result, cores=8, chip_bw_limit=limit)
    assert not four.bandwidth_bound
    assert eight.bandwidth_bound
    assert four.throughput == pytest.approx(4 * result.ipc)
    assert eight.throughput == pytest.approx(four.throughput)


def test_chip_throughput_validation():
    hierarchy = small_hierarchy_config()
    result = simulate(inorder_machine(hierarchy), matrix_multiply(n=4))
    with pytest.raises(ValueError):
        chip_throughput(result, cores=0, chip_bw_limit=1.0)
    with pytest.raises(ValueError):
        chip_throughput(result, cores=1, chip_bw_limit=0.0)
