"""Content-addressed result cache: key stability, invalidation, codec
round-trips, warm-cache reuse with zero re-simulation, integrity
(key-field checking, fsck, quarantine), and the LRU size cap."""

import dataclasses
import os
import shutil

import pytest

import repro.sim.cache as cache_mod
from repro.config import inorder_machine, sst_machine
from repro.sim.cache import (
    ResultCache,
    cache_enabled_by_env,
    decode_value,
    encode_value,
    result_key,
)
from repro.sim.parallel import ParallelRunner, SimTask
from repro.sim.runner import simulate
from repro.workloads import hash_join
from tests.conftest import small_hierarchy_config


@pytest.fixture
def program():
    return hash_join(table_words=256, probes=48)


@pytest.fixture
def config():
    return sst_machine(small_hierarchy_config())


# ---------------------------------------------------------------------------
# Key derivation.
# ---------------------------------------------------------------------------


def test_key_is_stable_across_rebuilds(config, program):
    """Identical inputs rebuilt from scratch hash to the same key."""
    same_config = sst_machine(small_hierarchy_config())
    same_program = hash_join(table_words=256, probes=48)
    assert result_key(config, program, 1000) == \
        result_key(same_config, same_program, 1000)


def test_key_changes_with_any_input(config, program):
    base = result_key(config, program, 1000)
    other_config = dataclasses.replace(
        config, sst=dataclasses.replace(config.sst, dq_size=7))
    other_program = hash_join(table_words=256, probes=49)
    assert result_key(other_config, program, 1000) != base
    assert result_key(config, other_program, 1000) != base
    assert result_key(config, program, 1001) != base


def test_key_changes_with_schema_version(config, program, monkeypatch):
    base = result_key(config, program, 1000)
    monkeypatch.setattr(cache_mod, "SIM_SCHEMA_VERSION",
                        cache_mod.SIM_SCHEMA_VERSION + 1)
    assert result_key(config, program, 1000) != base


def test_canonicalize_distinguishes_types():
    assert cache_mod.canonicalize(1) != cache_mod.canonicalize("1")
    assert cache_mod.canonicalize(True) != cache_mod.canonicalize(1)
    assert cache_mod.canonicalize(1.0) != cache_mod.canonicalize(1)
    assert cache_mod.canonicalize(None) != cache_mod.canonicalize("none")


def test_program_fingerprint_ignores_labels_not_content(program):
    other = hash_join(table_words=256, probes=48)
    assert program.fingerprint() == other.fingerprint()
    different = hash_join(table_words=256, probes=48, seed=99)
    assert program.fingerprint() != different.fingerprint()


# ---------------------------------------------------------------------------
# Codec round-trip.
# ---------------------------------------------------------------------------


def test_result_roundtrips_through_codec(config, program):
    result = simulate(config, program, verify=True)
    restored = decode_value(encode_value(result))
    assert restored == result
    assert restored.extra["sst"] == result.extra["sst"]
    assert restored.ipc == result.ipc


def test_roundtrip_covers_all_core_kinds(program):
    for machine in (inorder_machine(small_hierarchy_config()),
                    sst_machine(small_hierarchy_config())):
        result = simulate(machine, program)
        assert decode_value(encode_value(result)) == result


# ---------------------------------------------------------------------------
# The on-disk cache.
# ---------------------------------------------------------------------------


def test_store_then_load(tmp_path, config, program):
    cache = ResultCache(tmp_path)
    result = simulate(config, program)
    key = cache.key(config, program, 1_000_000)
    assert cache.load(key) is None
    cache.store(key, result)
    assert len(cache) == 1
    assert cache.load(key) == result
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_corrupt_entry_is_a_miss(tmp_path, config, program):
    cache = ResultCache(tmp_path)
    key = cache.key(config, program, 1000)
    (tmp_path / f"{key}.json").write_text("{not json")
    assert cache.load(key) is None
    assert cache.stats.invalid == 1


def test_schema_bump_orphans_old_entries(tmp_path, config, program,
                                         monkeypatch):
    cache = ResultCache(tmp_path)
    result = simulate(config, program)
    old_key = cache.key(config, program, 1_000_000)
    cache.store(old_key, result)

    monkeypatch.setattr(cache_mod, "SIM_SCHEMA_VERSION",
                        cache_mod.SIM_SCHEMA_VERSION + 1)
    # The new schema addresses a different key entirely...
    assert cache.key(config, program, 1_000_000) != old_key
    # ...and even a forced load of the old file refuses the stale schema.
    assert cache.load(old_key) is None
    assert cache.stats.invalid == 1


def test_clear_removes_entries(tmp_path, config, program):
    cache = ResultCache(tmp_path)
    cache.store(cache.key(config, program, 1000),
                simulate(config, program))
    assert cache.clear() == 1
    assert len(cache) == 0


def test_cache_enabled_by_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    assert cache_enabled_by_env()
    for off in ("0", "off", "false", "no"):
        monkeypatch.setenv("REPRO_CACHE", off)
        assert not cache_enabled_by_env()
    monkeypatch.setenv("REPRO_CACHE", "1")
    assert cache_enabled_by_env()


# ---------------------------------------------------------------------------
# Warm-cache runs do not simulate at all.
# ---------------------------------------------------------------------------


def test_warm_run_does_zero_resimulation(tmp_path, program, monkeypatch):
    configs = [inorder_machine(small_hierarchy_config()),
               sst_machine(small_hierarchy_config())]
    tasks = [SimTask(config=config, program=program) for config in configs]

    cache = ResultCache(tmp_path)
    cold = ParallelRunner(cache=cache).run(tasks)
    assert cache.stats.stores == len(tasks)

    # Any attempt to simulate on the warm pass is a test failure.
    def _boom(*args, **kwargs):
        raise AssertionError("warm cache run re-simulated a point")

    monkeypatch.setattr("repro.sim.parallel.simulate", _boom)
    warm_cache = ResultCache(tmp_path)
    runner = ParallelRunner(cache=warm_cache)
    outcomes = runner.run_outcomes(tasks)
    assert all(outcome.cached for outcome in outcomes)
    assert [outcome.result for outcome in outcomes] == cold
    assert warm_cache.stats.hits == len(tasks)
    assert warm_cache.stats.misses == 0


# ---------------------------------------------------------------------------
# Bugfix: a renamed/copied file must not serve the wrong result.
# ---------------------------------------------------------------------------


def test_key_mismatched_file_is_invalid_not_served(tmp_path, config,
                                                   program):
    cache = ResultCache(tmp_path)
    result = simulate(config, program)
    key = cache.key(config, program, 1000)
    other_key = cache.key(config, program, 2000)
    cache.store(key, result)
    # Simulate a rename/copy mistake: the file now addresses a point it
    # does not contain.
    shutil.copy(tmp_path / f"{key}.json", tmp_path / f"{other_key}.json")

    assert cache.load(other_key) is None  # never the wrong result
    assert cache.stats.invalid == 1
    assert cache.load(key) == result  # the honest entry still serves

    report = ResultCache(tmp_path).fsck()
    assert report.key_mismatch == 1
    assert report.ok == 1
    assert not (tmp_path / f"{other_key}.json").exists()
    assert (tmp_path / f"{key}.json").exists()


# ---------------------------------------------------------------------------
# Bugfix: a corrupt cached result is quarantined and re-simulated, not
# a permanent error.
# ---------------------------------------------------------------------------


def _store_doctored(cache, task):
    """Cache a result whose architectural state will fail golden
    verification (silent bit-rot in a cached file)."""
    result = simulate(task.config, task.program,
                      max_instructions=task.max_instructions)
    result.state.regs[1] ^= 0xDEAD
    key = cache.key(task.config, task.program, task.max_instructions)
    cache.store(key, result)
    return key


def test_verify_failure_quarantines_and_resimulates(tmp_path, config,
                                                    program):
    cache = ResultCache(tmp_path)
    task = SimTask(config=config, program=program, verify=True)
    key = _store_doctored(cache, task)

    outcomes = ParallelRunner(cache=cache).run_outcomes([task])
    assert outcomes[0].ok  # the point recovered by re-simulation
    assert not outcomes[0].cached
    assert cache.stats.invalid == 1
    # The quarantined entry was replaced by the sound re-simulation...
    assert ResultCache(tmp_path).load(key) == outcomes[0].result
    # ...so the next run is a clean cache hit.
    again = ParallelRunner(cache=ResultCache(tmp_path)) \
        .run_outcomes([task])
    assert again[0].cached and again[0].result == outcomes[0].result


def test_truncated_entry_resimulated_and_restored(tmp_path, config,
                                                  program):
    """A half-written entry (an interrupted non-atomic writer) is a
    miss: the point re-simulates to the same result and the entry is
    re-stored sound."""
    task = SimTask(config=config, program=program, verify=True)
    cold = ParallelRunner(cache=ResultCache(tmp_path)).run_outcomes([task])
    assert cold[0].ok and not cold[0].cached
    key = result_key(config, program, task.max_instructions)
    path = tmp_path / f"{key}.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])

    cache = ResultCache(tmp_path)
    warm = ParallelRunner(cache=cache).run_outcomes([task])
    assert warm[0].ok and not warm[0].cached
    assert warm[0].result == cold[0].result
    assert cache.stats.invalid == 1
    assert ResultCache(tmp_path).load(key) == warm[0].result


# ---------------------------------------------------------------------------
# Bugfix: a store failure must not discard the finished batch.
# ---------------------------------------------------------------------------


def test_codec_store_failure_warns_and_continues(tmp_path, config,
                                                 program, monkeypatch):
    # Doctor the codec registry: CoreResult itself becomes unregistered,
    # as a newly added stats dataclass would be.
    monkeypatch.delitem(cache_mod._DATACLASSES, "CoreResult")
    runner = ParallelRunner(cache=ResultCache(tmp_path))
    task = SimTask(config=config, program=program)
    with pytest.warns(RuntimeWarning, match="cache store failed"):
        outcomes = runner.run_outcomes([task])
    assert outcomes[0].ok  # the finished result survived
    assert outcomes[0].result.instructions > 0
    assert len(ResultCache(tmp_path)) == 0


def test_disk_store_failure_warns_and_continues(tmp_path, config,
                                                program):
    blocked = tmp_path / "not-a-dir"
    blocked.write_text("in the way")  # mkdir(parents=True) will raise
    runner = ParallelRunner(cache=ResultCache(blocked))
    task = SimTask(config=config, program=program)
    with pytest.warns(RuntimeWarning, match="cache store failed"):
        outcomes = runner.run_outcomes([task])
    assert outcomes[0].ok


# ---------------------------------------------------------------------------
# fsck.
# ---------------------------------------------------------------------------


def test_fsck_classifies_and_repairs_everything(tmp_path, config,
                                                program):
    cache = ResultCache(tmp_path)
    result = simulate(config, program)
    good_key = cache.key(config, program, 1000)
    cache.store(good_key, result)

    # Key mismatch: a copy addressing the wrong point.
    mismatch_key = cache.key(config, program, 2000)
    shutil.copy(tmp_path / f"{good_key}.json",
                tmp_path / f"{mismatch_key}.json")
    # Schema-stale: written under an older SIM_SCHEMA_VERSION.
    stale = dict(schema=cache_mod.SIM_SCHEMA_VERSION - 1, key="00ff",
                 result=None)
    import json as json_mod
    (tmp_path / "00ff.json").write_text(json_mod.dumps(stale))
    # Corrupt: unparseable JSON.
    (tmp_path / "beef.json").write_text("{definitely not json")
    # Orphan tmp file from an interrupted store.
    (tmp_path / ".tmp-abc123.json").write_text("partial write")

    dry = ResultCache(tmp_path).fsck(repair=False)
    assert (dry.scanned, dry.ok) == (4, 1)
    assert dry.key_mismatch == 1 and dry.schema_stale == 1
    assert dry.corrupt == 1 and dry.orphan_tmp == 1
    assert dry.problems == 4 and not dry.removed
    assert (tmp_path / "beef.json").exists()  # dry run removed nothing

    report = ResultCache(tmp_path).fsck()
    assert report.problems == 4
    assert sorted(report.removed) == sorted([
        f"{mismatch_key}.json", "00ff.json", "beef.json",
        ".tmp-abc123.json",
    ])
    survivors = ResultCache(tmp_path)
    assert len(survivors) == 1
    assert survivors.load(good_key) == result
    assert survivors.fsck().problems == 0


def test_fsck_on_missing_dir_is_empty(tmp_path):
    report = ResultCache(tmp_path / "never-created").fsck()
    assert report.scanned == 0 and report.problems == 0


def test_len_and_clear_ignore_tmp_orphans(tmp_path, config, program):
    cache = ResultCache(tmp_path)
    cache.store(cache.key(config, program, 1000),
                simulate(config, program))
    (tmp_path / ".tmp-orphan.json").write_text("x")
    assert len(cache) == 1  # the orphan is not an entry
    assert cache.disk_stats()["orphan_tmp"] == 1
    assert cache.clear() == 1  # one *entry* removed...
    assert not (tmp_path / ".tmp-orphan.json").exists()  # ...orphan too


def test_invalidate_counts_and_deletes(tmp_path, config, program):
    cache = ResultCache(tmp_path)
    key = cache.key(config, program, 1000)
    assert not cache.invalidate(key)  # nothing there yet
    cache.store(key, simulate(config, program))
    assert cache.invalidate(key)
    assert cache.stats.invalid == 1
    assert cache.load(key) is None


# ---------------------------------------------------------------------------
# LRU size cap.
# ---------------------------------------------------------------------------


def test_lru_eviction_respects_cap_and_recency(tmp_path, config,
                                               program):
    unbounded = ResultCache(tmp_path)
    result = simulate(config, program)
    keys = [unbounded.key(config, program, budget)
            for budget in (1000, 2000, 3000)]
    for index, key in enumerate(keys):
        unbounded.store(key, result)
        # Distinct, strictly increasing mtimes regardless of fs
        # timestamp granularity.
        os.utime(tmp_path / f"{key}.json", (index, index))

    entry_bytes = (tmp_path / f"{keys[0]}.json").stat().st_size
    capped = ResultCache(tmp_path, max_bytes=3 * entry_bytes + 10)
    # A hit refreshes recency, making keys[0] the most recently used.
    assert capped.load(keys[0]) == result
    newest = unbounded.key(config, program, 4000)
    capped.store(newest, result)
    os.utime(tmp_path / f"{newest}.json", None)

    # The cap holds and the least-recently-used entry (keys[1]) went.
    assert capped.stats.evictions == 1
    remaining = {path.stem for path in tmp_path.glob("*.json")}
    assert keys[1] not in remaining
    assert {keys[0], keys[2], newest} <= remaining


def test_cache_max_bytes_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
    assert ResultCache(tmp_path).max_bytes == 12345
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "lots")
    with pytest.raises(Exception, match="REPRO_CACHE_MAX_BYTES"):
        ResultCache(tmp_path)
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
    assert ResultCache(tmp_path).max_bytes is None
    assert ResultCache(tmp_path, max_bytes=7).max_bytes == 7


def test_lru_eviction_equal_mtimes_is_deterministic(tmp_path, config,
                                                    program):
    """Entries stored in one burst tie on coarse filesystem mtimes;
    the name tie-break makes the eviction order reproducible."""
    unbounded = ResultCache(tmp_path)
    result = simulate(config, program)
    keys = [unbounded.key(config, program, budget)
            for budget in (1000, 2000, 3000, 4000)]
    for key in keys:
        unbounded.store(key, result)
        os.utime(tmp_path / f"{key}.json", (100, 100))  # all tie

    entry_bytes = (tmp_path / f"{keys[0]}.json").stat().st_size
    capped = ResultCache(tmp_path, max_bytes=2 * entry_bytes + 10)
    trigger = unbounded.key(config, program, 5000)
    capped.store(trigger, result)
    os.utime(tmp_path / f"{trigger}.json", (200, 200))
    capped._evict_to_cap()

    # With every mtime equal, the lexicographically smallest names go
    # first — never the newer trigger entry, never a random subset.
    survivors = {path.stem for path in tmp_path.glob("*.json")}
    expected_evicted = set(sorted(keys)[:len(keys) + 1 - 2])
    assert survivors == ({trigger} | set(keys)) - expected_evicted


def test_load_refreshes_mtime_for_lru(tmp_path, config, program):
    """A hit must bump the entry's recency or the size cap evicts the
    hottest entries first."""
    cache = ResultCache(tmp_path, max_bytes=1 << 30)
    result = simulate(config, program)
    key = cache.key(config, program, 1000)
    cache.store(key, result)
    path = tmp_path / f"{key}.json"
    os.utime(path, (1, 1))
    assert cache.load(key) == result
    assert path.stat().st_mtime > 1
