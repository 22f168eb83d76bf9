"""E15 reads each TLB miss rate from its in-order point's result, so a
warm run simulates nothing, and the rates equal those of a dedicated
uncached in-order run (how E15 measured them before)."""

from repro.config import inorder_machine
from repro.experiments import e15_tlb
from repro.experiments.bench_env import BenchEnv
from repro.experiments.engine import ExperimentEngine
from repro.sim.cache import ResultCache
from repro.sim.machine import build_core, build_hierarchy
from repro.workloads import hash_join


def reference_miss_rate(env, entries, program):
    """A dedicated in-order run outside the cache, read from its TLB."""
    config = inorder_machine(e15_tlb._hierarchy(env, entries))
    hierarchy = build_hierarchy(config.hierarchy)
    core = build_core(config, program, hierarchy)
    core.run(max_instructions=env.max_instructions)
    return hierarchy.dtlb.stats.miss_rate


def inorder_miss_rates(cache):
    env = BenchEnv(smoke=True, cache=cache)
    program = hash_join(table_words=env.scaled(1 << 16),
                        probes=env.scaled(3000))
    return env, program, [
        env.run(inorder_machine(e15_tlb._hierarchy(env, entries)),
                program).extra["dtlb"].miss_rate
        for entries in e15_tlb.TLB_ENTRIES
    ]


def test_warm_e15_reads_cached_miss_rates(tmp_path, monkeypatch):
    cold = ExperimentEngine(smoke=True, cache=ResultCache(tmp_path),
                            write=False).run("e15")
    env, program, cold_rates = inorder_miss_rates(ResultCache(tmp_path))
    expected = [reference_miss_rate(env, entries, program)
                for entries in e15_tlb.TLB_ENTRIES]
    assert cold_rates == expected
    assert [row[1] for row in cold["table"]["rows"]] == [
        f"{rate:.0%}" for rate in expected]

    def _boom(*args, **kwargs):
        raise AssertionError("warm E15 built a core")

    monkeypatch.setattr("repro.sim.machine.build_core", _boom)
    warm_cache = ResultCache(tmp_path)
    warm = ExperimentEngine(smoke=True, cache=warm_cache,
                            write=False).run("e15")
    assert warm["table"] == cold["table"]
    assert warm["metrics"] == cold["metrics"]
    assert (warm_cache.stats.hits, warm_cache.stats.misses) == (9, 0)
    assert inorder_miss_rates(ResultCache(tmp_path))[2] == expected
