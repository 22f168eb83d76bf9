"""speedup_table, and the runner's quarantine of a corrupt cached
point."""

import pytest

from repro.config import ea_machine, inorder_machine
from repro.sim.cache import ResultCache
from repro.sim.compare import speedup_table
from repro.sim.parallel import ParallelRunner, SimTask
from repro.workloads import hash_join
from tests.conftest import small_hierarchy_config


@pytest.fixture(scope="module")
def program():
    return hash_join(table_words=256, probes=48)


def test_speedup_table_renders(program):
    table = speedup_table(
        "E-test",
        [program],
        [inorder_machine(small_hierarchy_config()),
         ea_machine(small_hierarchy_config())],
        baseline_name="inorder-2w",
    )
    text = table.render()
    assert "db-hashjoin" in text
    assert "geomean" in text
    assert "x" in text


def test_speedup_table_rejects_unknown_baseline(program):
    with pytest.raises(ValueError, match="baseline"):
        speedup_table("T", [program],
                      [inorder_machine(small_hierarchy_config())],
                      baseline_name="nope")


def _corrupt_cached_regs(cache_dir):
    """Tamper with the single cached entry's register file so golden
    verification fails on load."""
    import json

    entry = next(cache_dir.glob("*.json"))
    payload = json.loads(entry.read_text())
    payload["result"]["fields"]["state"]["__state__"]["regs"][2] ^= 1
    entry.write_text(json.dumps(payload))
    return entry


def _run_point(cache, task, mode):
    """One point through ``ParallelRunner.run`` (``"raise"``: a failed
    point raises after the batch) or ``run_outcomes`` (``"skip"``: a
    failed point comes back as a failed outcome)."""
    runner = ParallelRunner(cache=cache)
    if mode == "raise":
        return runner.run([task])[0]
    [outcome] = runner.run_outcomes([task])
    assert outcome.ok
    return outcome.result


@pytest.mark.parametrize("mode", ["skip", "raise"])
def test_sweep_cached_corrupt_point_is_resimulated_not_raised(
        program, tmp_path, mode):
    """A cached-but-corrupt point must never fail a batch by itself:
    it is quarantined and transparently re-simulated by either runner
    entry point, and the fresh result heals the cache."""
    task = SimTask(config=inorder_machine(small_hierarchy_config()),
                   program=program, verify=True)
    warm = _run_point(ResultCache(tmp_path), task, mode)
    _corrupt_cached_regs(tmp_path)

    cache = ResultCache(tmp_path)
    result = _run_point(cache, task, mode)
    assert result.cycles == warm.cycles
    assert result.state.regs == warm.state.regs
    assert cache.stats.invalid == 1  # the quarantine

    # The re-simulated result replaced the corrupt entry: a third run
    # is a pure cache hit with intact state.
    healed_cache = ResultCache(tmp_path)
    healed = _run_point(healed_cache, task, mode)
    assert healed_cache.stats.hits == 1
    assert healed_cache.stats.invalid == 0
    assert healed.state.regs == warm.state.regs
