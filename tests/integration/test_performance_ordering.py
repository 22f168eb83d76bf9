"""Cross-core performance *shape* checks on the tiny suite — the
qualitative claims the paper's evaluation rests on, as assertions."""

import pytest

from repro.config import (
    ea_machine,
    inorder_machine,
    scout_machine,
    sst_machine,
)
from repro.sim.runner import simulate
from repro.stats.report import geomean
from repro.workloads import commercial_suite, pointer_chase
from tests.conftest import small_hierarchy_config


def run_all(program, configs):
    """Machine name -> golden-verified result of ``program``."""
    return {config.name: simulate(config, program, verify=True)
            for config in configs}


@pytest.fixture(scope="module")
def commercial_results():
    hierarchy = small_hierarchy_config(latency=200, mshr=32)
    configs = [
        inorder_machine(hierarchy),
        scout_machine(hierarchy),
        ea_machine(hierarchy),
        sst_machine(hierarchy),
    ]
    return {
        program.name: run_all(program, configs)
        for program in commercial_suite("tiny")
    }


def test_speculation_never_loses_to_inorder(commercial_results):
    for name, results in commercial_results.items():
        baseline = results["inorder-2w"]
        for machine in ("scout-2w", "ea-2w", "sst-2w-2ckpt"):
            speedup = results[machine].speedup_over(baseline)
            assert speedup > 0.95, (name, machine, speedup)


def test_sst_is_best_on_geomean(commercial_results):
    def suite_geomean(machine):
        return geomean([
            results[machine].speedup_over(results["inorder-2w"])
            for results in commercial_results.values()
        ])

    scout = suite_geomean("scout-2w")
    ea = suite_geomean("ea-2w")
    sst = suite_geomean("sst-2w-2ckpt")
    assert sst > 1.3  # speculation pays off on miss-bound workloads
    assert sst >= ea * 0.98
    assert sst >= scout * 0.98


def test_retiring_speculation_beats_pure_scout(commercial_results):
    """EA keeps the work scout throws away; on the suite geomean it
    must not lose to scout."""
    ea = geomean([
        results["ea-2w"].speedup_over(results["inorder-2w"])
        for results in commercial_results.values()
    ])
    scout = geomean([
        results["scout-2w"].speedup_over(results["inorder-2w"])
        for results in commercial_results.values()
    ])
    assert ea >= scout * 0.95


def test_dependent_chain_defeats_runahead():
    """Single pointer chain: nothing can overlap dependent misses, so
    all machines land within ~20% of in-order."""
    hierarchy = small_hierarchy_config(latency=200)
    program = pointer_chase(chains=1, nodes_per_chain=128, hops=128,
                            name="chain1")
    results = run_all(program,
                      [inorder_machine(hierarchy), sst_machine(hierarchy)])
    speedup = results["sst-2w-2ckpt"].speedup_over(results["inorder-2w"])
    assert speedup < 1.35


def test_mlp_scales_with_chain_count():
    """More independent chains -> more overlap -> bigger SST speedup."""
    hierarchy = small_hierarchy_config(latency=200, mshr=32)
    speedups = []
    for chains in (1, 4):
        program = pointer_chase(chains=chains, nodes_per_chain=128,
                                hops=96, name=f"chains{chains}")
        results = run_all(program, [inorder_machine(hierarchy),
                                    sst_machine(hierarchy)])
        speedups.append(
            results["sst-2w-2ckpt"].speedup_over(results["inorder-2w"])
        )
    assert speedups[1] > speedups[0] * 1.5
