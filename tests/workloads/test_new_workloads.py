"""Scatter-update and graph-BFS generators."""

import pytest

from repro.config import MachineConfig, SSTConfig, sst_machine, inorder_machine
from repro.isa.interpreter import Interpreter
from repro.sim.runner import simulate
from repro.workloads import graph_bfs, scatter_update
from repro.workloads.base import RESULT_ADDR
from tests.conftest import small_hierarchy_config


def test_scatter_terminates_and_writes_result():
    program = scatter_update(table_words=512, updates=64)
    state = Interpreter(program, max_steps=500_000).run()
    assert state.memory.read(RESULT_ADDR) != 0


def test_scatter_alias_validation():
    with pytest.raises(ValueError):
        scatter_update(alias_per_1024=2000)
    with pytest.raises(ValueError):
        scatter_update(table_words=1000)


def test_scatter_alias_controls_hot_pointers():
    from repro.workloads.base import HEAP_BASE
    from repro.workloads.scatter import HOT_WORDS

    hot_top = HEAP_BASE + 8 * HOT_WORDS
    def hot_fraction(program):
        pointers = [value for addr, value in program.image.items()
                    if value >= HEAP_BASE and addr > hot_top]
        hot = sum(1 for p in pointers if p < hot_top)
        return hot / len(pointers)
    none = scatter_update(table_words=1024, alias_per_1024=0)
    some = scatter_update(table_words=1024, alias_per_1024=128)
    assert hot_fraction(none) == 0.0
    assert 0.05 < hot_fraction(some) < 0.25


def test_scatter_conservative_vs_bypass_both_correct():
    program = scatter_update(table_words=512, updates=96,
                             alias_per_1024=128)
    hierarchy = small_hierarchy_config()
    for bypass in (True, False):
        machine = MachineConfig(
            hierarchy=hierarchy,
            sst=SSTConfig(bypass_unresolved_stores=bypass),
            name=f"sst-{bypass}",
        )
        simulate(machine, program, verify=True)


def test_bfs_visits_every_vertex():
    vertices = 128
    program = graph_bfs(vertices=vertices, avg_degree=3)
    state = Interpreter(program, max_steps=2_000_000).run()
    assert state.memory.read(RESULT_ADDR) == vertices


def test_bfs_deterministic():
    a = Interpreter(graph_bfs(vertices=64, seed=5), max_steps=10**6).run()
    b = Interpreter(graph_bfs(vertices=64, seed=5), max_steps=10**6).run()
    assert a.same_architectural_state(b)


def test_bfs_validation():
    with pytest.raises(ValueError):
        graph_bfs(vertices=1)
    with pytest.raises(ValueError):
        graph_bfs(avg_degree=0)


def test_bfs_speculation_correct_and_profitable():
    program = graph_bfs(vertices=256, avg_degree=4)
    hierarchy = small_hierarchy_config()
    base = simulate(inorder_machine(hierarchy), program, verify=True)
    fast = simulate(sst_machine(hierarchy), program, verify=True)
    assert fast.speedup_over(base) > 1.1
    # BFS speculates across visited-checks: some deferred branches fail.
    stats = fast.extra["sst"]
    assert stats.deferred_branches > 0
