"""Content-addressed result cache: key stability, a key's independence
of the machine's display name, invalidation, codec round-trips, the
digest-only entry layout, one entry for two labels of one machine,
warm-cache reuse with zero re-simulation for points and multicore runs,
the checks a load makes (schema, layout, key field, payload and kind),
and quarantine."""

import dataclasses
import enum
import json
import shutil

import pytest

import repro.sim.cache as cache_mod
from repro.baselines.core_base import CoreResult
from repro.cmp.multicore import Multicore, MulticoreResult
from repro.config import (
    DEFAULT_MAX_INSTRUCTIONS,
    SSTConfig,
    TLBConfig,
    ea_machine,
    inorder_machine,
    ooo_machine,
    sst_machine,
)
from repro.core.sst_core import SSTCore
from repro.errors import ConfigError, ExecutionError, ReproError
from repro.experiments.bench_env import BenchEnv
from repro.isa.interpreter import CachedState
from repro.memory.sparse_memory import SparseMemory
from repro.memory.tlb import TLBStats
from repro.regress.firewall import (
    BaselineFirewall,
    multicore_behavior,
    point_behavior,
)
from repro.regress.store import BaselineStore
from repro.sim.cache import (
    ResultCache,
    cache_enabled_by_env,
    decode_value,
    encode_value,
    multicore_key,
    result_key,
)
from repro.sim.parallel import ParallelRunner, SimTask
from repro.sim.runner import simulate
from repro.workloads import hash_join
from tests.conftest import (
    full_state_id,
    json_files,
    small_hierarchy_config,
    stored_records,
)


@pytest.fixture
def program():
    return hash_join(table_words=256, probes=48)


@pytest.fixture
def config():
    return sst_machine(small_hierarchy_config())


def two_core_run():
    """A small 2-core SST run over one shared L2, not yet run."""
    return Multicore(
        small_hierarchy_config(), [SSTConfig(checkpoints=2)] * 2,
        [hash_join(table_words=256, probes=48, seed=seed)
         for seed in (0, 1)],
    )


@pytest.fixture(scope="module")
def multicore_result():
    return two_core_run().run()


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


def renamed(config, name="another-label"):
    """``config`` under another display name."""
    return dataclasses.replace(config, name=name)


def test_key_ignores_the_display_name(config, program):
    """The name labels a machine in tables; no core reads it, so two
    sweeps' labels for one machine address one point."""
    assert renamed(config).name != config.name
    assert result_key(renamed(config), program, 1000) == \
        result_key(config, program, 1000)


def _alternatives(value):
    """Other values of one config leaf, most likely valid first."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, enum.Enum):
        return [member for member in type(value) if member != value]
    if isinstance(value, int):
        return [value * 2, value + 1, value - 1]
    assert value is None, value  # a hierarchy without a TLB
    return [TLBConfig()]


def leaf_variants(value, path=""):
    """(path, variant) for every leaf field of a config dataclass but
    ``name``: ``value`` with that one leaf changed to another valid
    value."""
    for field in dataclasses.fields(value):
        current = getattr(value, field.name)
        if field.name == "name" or (current is None and field.name != "tlb"):
            continue  # the display label, or the core this machine lacks
        where = f"{path}{field.name}"
        if dataclasses.is_dataclass(current):
            for inner, variant in leaf_variants(current, f"{where}."):
                yield inner, dataclasses.replace(value,
                                                 **{field.name: variant})
            continue
        for candidate in _alternatives(current):
            try:
                variant = dataclasses.replace(value,
                                              **{field.name: candidate})
            except ConfigError:
                continue
            yield where, variant
            break
        else:
            raise AssertionError(f"no valid variant of {where}")


# An EA core (one checkpoint, so scout_only can flip) behind a hierarchy
# with a TLB (so its fields are leaves), and an OoO core behind none.
KEYED_MACHINES = [
    ea_machine(dataclasses.replace(small_hierarchy_config(),
                                   tlb=TLBConfig())),
    ooo_machine(small_hierarchy_config()),
]


@pytest.mark.parametrize("machine", KEYED_MACHINES,
                         ids=lambda machine: machine.name)
def test_key_changes_with_every_simulated_field(machine, program):
    """Every hierarchy, ``sst`` and ``ooo`` field is an input of the
    simulation, so changing any one of them moves the key."""
    base = result_key(machine, program, 1000)
    paths = []
    for path, variant in leaf_variants(machine):
        paths.append(path)
        assert variant.name == machine.name
        assert result_key(variant, program, 1000) != base, path
    core = "sst" if machine.sst is not None else "ooo"
    assert {path.split(".")[0] for path in paths} == {"hierarchy", core}
    assert "hierarchy.tlb" in paths or "hierarchy.tlb.entries" in paths


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
# Codec round-trip.  A restored result keeps everything but the memory
# image, so it is compared field by field, never with ``==`` against the
# fresh result (whose state is an ArchState).
# ---------------------------------------------------------------------------


def assert_same_point(restored, result):
    """``restored`` is ``result`` as the cache keeps it: the same
    governed behavior, registers, PC, cycles and statistics."""
    assert isinstance(restored.state, CachedState)
    assert point_behavior(restored) == point_behavior(result)
    assert restored.state.regs == result.state.regs
    assert restored.state.pc == result.state.pc
    assert (restored.core_name, restored.program_name) == \
        (result.core_name, result.program_name)
    assert (restored.cycles, restored.instructions) == \
        (result.cycles, result.instructions)
    assert restored.extra == result.extra


def test_result_roundtrips_through_codec(config, program):
    result = simulate(config, program, verify=True)
    restored = decode_value(encode_value(result))
    assert_same_point(restored, result)
    assert restored.state.digest() == result.state.digest()
    assert restored.extra["sst"] == result.extra["sst"]
    assert restored.ipc == result.ipc


def test_roundtrip_covers_all_core_kinds(program):
    for machine in (inorder_machine(small_hierarchy_config()),
                    sst_machine(small_hierarchy_config())):
        result = simulate(machine, program)
        assert_same_point(decode_value(encode_value(result)), result)


@pytest.mark.parametrize("machine", [inorder_machine, sst_machine,
                                     ooo_machine])
def test_tlb_stats_roundtrip_through_codec(machine, program):
    """A core whose hierarchy has a TLB carries its statistics, and the
    cache keeps them: E15 reads its miss rates from cached points."""
    hierarchy = dataclasses.replace(
        small_hierarchy_config(),
        tlb=TLBConfig(entries=4, page_bytes=512, walk_latency=30))
    result = simulate(machine(hierarchy), program)
    stats = result.extra["dtlb"]
    assert isinstance(stats, TLBStats) and stats.misses > 0
    assert_same_point(decode_value(encode_value(result)), result)
    assert "dtlb" not in simulate(machine(small_hierarchy_config()),
                                  program).extra


def test_multicore_result_roundtrips_through_codec(multicore_result):
    result = multicore_result
    restored = decode_value(encode_value(result))
    assert isinstance(restored, MulticoreResult)
    assert restored.cores == result.cores == 2
    for restored_core, core in zip(restored.per_core, result.per_core):
        assert_same_point(restored_core, core)
        assert restored_core.state.digest() == core.state.digest()
    assert restored.makespan == result.makespan
    assert restored.quantum == result.quantum
    assert restored.idle_quanta_skipped == result.idle_quanta_skipped
    assert restored.aggregate_ipc == result.aggregate_ipc
    assert multicore_behavior(restored) == multicore_behavior(result)


def test_memory_image_outside_a_state_is_not_serializable():
    with pytest.raises(cache_mod.CacheCodecError, match="SparseMemory"):
        encode_value({"image": SparseMemory()})


# ---------------------------------------------------------------------------
# The on-disk cache.
# ---------------------------------------------------------------------------


def test_store_then_load(tmp_path, config, program):
    cache = ResultCache(tmp_path)
    result = simulate(config, program)
    key = result_key(config, program, 1_000_000)
    assert cache.load(key) is None
    cache.store(key, result)
    assert json_files(tmp_path) == [tmp_path / f"{key}.json"]
    assert_same_point(cache.load(key), result)
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_entry_keeps_no_memory_image(tmp_path, config, program):
    cache = ResultCache(tmp_path)
    result = simulate(config, program)
    assert len(result.state.memory) > 256  # the table is in the image
    key = result_key(config, program, 1_000_000)
    cache.store(key, result)
    payload = json.loads((tmp_path / f"{key}.json").read_text())
    assert payload["layout"] == cache_mod.ENTRY_LAYOUT
    assert payload["result"]["fields"]["state"] == {"__state__": {
        "regs": result.state.regs, "pc": result.state.pc,
        "digest": result.state.digest(),
    }}


def test_reading_memory_of_a_cached_result_raises(tmp_path, config,
                                                  program):
    cache = ResultCache(tmp_path)
    key = result_key(config, program, 1_000_000)
    cache.store(key, simulate(config, program))
    cached = cache.load(key)
    with pytest.raises(ReproError) as raised:
        cached.state.memory.read(0)
    message = str(raised.value)
    assert "\n" not in message
    assert f"{config.name} on {program.name!r}" in message
    assert "REPRO_CACHE=0" in message


def test_corrupt_entry_is_a_miss(tmp_path, config, program):
    cache = ResultCache(tmp_path)
    key = result_key(config, program, 1000)
    (tmp_path / f"{key}.json").write_text("{not json")
    assert cache.load(key) is None
    assert cache.stats.invalid == 1


def test_schema_bump_orphans_old_entries(tmp_path, config, program,
                                         monkeypatch):
    cache = ResultCache(tmp_path)
    result = simulate(config, program)
    old_key = result_key(config, program, 1_000_000)
    cache.store(old_key, result)

    monkeypatch.setattr(cache_mod, "SIM_SCHEMA_VERSION",
                        cache_mod.SIM_SCHEMA_VERSION + 1)
    # The new schema addresses a different key entirely...
    assert result_key(config, program, 1_000_000) != old_key
    # ...and even a forced load of the old file refuses the stale schema.
    assert cache.load(old_key) is None
    assert cache.stats.invalid == 1


def _store_in_image_layout(cache, key, result):
    """Write ``result`` the way every entry was written before the
    digest-only layout: the whole ArchState, memory image included, and
    no ``layout`` field."""
    encoded = encode_value(result)
    encoded["fields"]["state"] = {"__dataclass__": "ArchState", "fields": {
        "regs": result.state.regs,
        "memory": {"__memory__": sorted(result.state.memory.snapshot().items())},
        "pc": result.state.pc,
    }}
    payload = {"schema": cache_mod.SIM_SCHEMA_VERSION, "key": key,
               "result": encoded}
    cache.root.mkdir(parents=True, exist_ok=True)
    (cache.root / f"{key}.json").write_text(json.dumps(payload))


def test_image_layout_entry_is_a_stale_miss(tmp_path, config, program):
    cache = ResultCache(tmp_path)
    task = SimTask(config=config, program=program)
    result = simulate(config, program)
    key = result_key(config, program, task.max_instructions)
    _store_in_image_layout(cache, key, result)

    assert cache.load(key) is None
    assert (cache.stats.invalid, cache.stats.misses) == (1, 1)

    # The point is re-simulated and its entry overwritten in the
    # current layout, so the next load is a hit.
    [outcome] = ParallelRunner(cache=cache).run_outcomes([task])
    assert outcome.ok and not outcome.cached
    assert_same_point(ResultCache(tmp_path).load(key), result)


def test_layout_2_entry_is_a_stale_miss(tmp_path, config, program):
    """An entry written before results carried TLB statistics (layout
    2), while cache statistics still had prefetch counters (layout 3),
    while in-order results had their own perf counters and CPI stack
    (layout 4), or while the state digest covered every memory word
    (layout 5), is a stale miss, and so is one written under an older
    ``SIM_SCHEMA_VERSION``."""
    cache = ResultCache(tmp_path)
    key = result_key(config, program, 1000)
    cache.store(key, simulate(config, program))
    path = tmp_path / f"{key}.json"
    payload = json.loads(path.read_text())
    assert payload["layout"] == cache_mod.ENTRY_LAYOUT == 6
    stale = [{"layout": layout} for layout in (2, 3, 4, 5)]
    stale.append({"schema": cache_mod.SIM_SCHEMA_VERSION - 1})
    for loads, fields in enumerate(stale, start=1):
        path.write_text(json.dumps({**payload, **fields}))
        assert cache.load(key) is None
        assert (cache.stats.invalid, cache.stats.misses) == (loads, loads)


def test_layout_5_entry_is_an_invalid_miss(tmp_path, config, program):
    """A layout-5 entry decodes, but its digest covers every memory word
    of the final state, image words included: it loads as an invalid
    miss, and the point is re-simulated and its entry overwritten."""
    cache = ResultCache(tmp_path)
    task = SimTask(config=config, program=program)
    result = simulate(config, program)
    key = result_key(config, program, task.max_instructions)
    cache.store(key, result)
    path = tmp_path / f"{key}.json"
    payload = json.loads(path.read_text())
    payload["layout"] = 5
    state = payload["result"]["fields"]["state"]["__state__"]
    state["digest"] = full_state_id(result.state)
    assert state["digest"] != result.state.digest()
    path.write_text(json.dumps(payload))

    assert cache.load(key) is None
    assert (cache.stats.invalid, cache.stats.misses) == (1, 1)
    [outcome] = ParallelRunner(cache=cache).run_outcomes([task])
    assert outcome.ok and not outcome.cached
    reloaded = ResultCache(tmp_path).load(key)
    assert reloaded.state.digest() == result.state.digest()


def test_two_caches_store_one_key_in_one_directory(tmp_path, config,
                                                   program):
    """Each store writes its own hidden temp name and renames it over
    the entry, so two caches on one directory can store the same key."""
    result = simulate(config, program)
    key = result_key(config, program, 1000)
    first, second = ResultCache(tmp_path), ResultCache(tmp_path)
    first.store(key, result)
    second.store(key, result)
    # No temp file is left beside the entry.
    assert list(tmp_path.iterdir()) == [tmp_path / f"{key}.json"]
    assert_same_point(first.load(key), result)
    assert (first.stats.stores, second.stats.stores) == (1, 1)


def test_store_makes_a_missing_directory(tmp_path, config, program):
    root = tmp_path / "made" / "on" / "first-store"
    cache = ResultCache(root)
    key = result_key(config, program, 1000)
    cache.store(key, simulate(config, program))
    assert json_files(root) == [root / f"{key}.json"]


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
    for outcome, result in zip(outcomes, cold):
        assert_same_point(outcome.result, result)
    assert warm_cache.stats.hits == len(tasks)
    assert warm_cache.stats.misses == 0


# ---------------------------------------------------------------------------
# One cache entry per distinct point: a display name is not an input.
# ---------------------------------------------------------------------------


def counting_simulate(monkeypatch):
    """Count the runner's simulations, by machine name."""
    calls = []

    def counted(config, program, **kwargs):
        calls.append(config.name)
        return simulate(config, program, **kwargs)

    monkeypatch.setattr("repro.sim.parallel.simulate", counted)
    return calls


def test_two_labels_of_one_machine_share_one_entry(tmp_path, config, program,
                                                   monkeypatch):
    """Two sweeps' batches label one machine each their own way: the
    point is simulated and stored once, and the second label is served
    from the first's entry under its own name."""
    calls = counting_simulate(monkeypatch)
    tasks = [SimTask(config=config, program=program),
             SimTask(config=renamed(config), program=program)]
    assert tasks[0].key == tasks[1].key
    cache = ResultCache(tmp_path)
    runner = ParallelRunner(cache=cache)

    first, second = (runner.run_outcomes([task])[0] for task in tasks)
    assert calls == [config.name]
    assert (first.cached, second.cached) == (False, True)
    assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == \
        (1, 1, 1)
    assert json_files(tmp_path) == [tmp_path / f"{tasks[0].key}.json"]
    assert (first.result.core_name, second.result.core_name) == \
        (config.name, "another-label")
    assert f"another-label on {program.name!r}" in second.result.state.point
    assert point_behavior(second.result) == point_behavior(first.result)


def test_capture_of_one_point_under_two_labels_writes_one_record(
        tmp_path, config, program):
    """The point scenario holds no display name, so a semid observed
    under two labels has one scenario: one record, left unchanged."""
    store = BaselineStore(tmp_path)
    result = simulate(config, program)
    tasks = [SimTask(config=config, program=program),
             SimTask(config=renamed(config), program=program)]

    def capture():
        firewall = BaselineFirewall(store, mode="capture")
        return [firewall.observe_point(
                    task, dataclasses.replace(result,
                                              core_name=task.config.name))
                for task in tasks]

    assert capture() == ["captured", "unchanged"]
    assert capture() == ["unchanged", "unchanged"]
    [record] = stored_records(tmp_path)
    assert record.semid == tasks[0].key
    assert record.scenario == {"core": "sst", "program": program.name,
                               "max_instructions": DEFAULT_MAX_INSTRUCTIONS}


def _env_run(cache):
    """One 2-core run through a :class:`BenchEnv`; (result, row)."""
    env = BenchEnv(smoke=True, cache=cache)
    result = env.run_multicore(two_core_run(), machine="2xsst",
                               program="db-hashjoin x2")
    [row] = env.points
    return result, row


def test_multicore_run_takes_the_environment_budget():
    """A multicore run is keyed and simulated at the environment's
    instruction budget, like a point: a budget too small for the
    program stops the run."""
    env = BenchEnv(smoke=True, cache=None, max_instructions=100)
    with pytest.raises(ExecutionError, match="exceeded 100 instructions"):
        env.run_multicore(two_core_run(), machine="2xsst",
                          program="db-hashjoin x2")


def test_warm_multicore_run_does_zero_resimulation(tmp_path, monkeypatch):
    cold_cache = ResultCache(tmp_path)
    cold, cold_row = _env_run(cold_cache)
    assert (cold_cache.stats.misses, cold_cache.stats.stores) == (1, 1)
    assert cold_row["key"] == multicore_key(two_core_run(),
                                            DEFAULT_MAX_INSTRUCTIONS)

    def _boom(*args, **kwargs):
        raise AssertionError("warm cache run re-simulated a multicore run")

    def _no_core(*args, **kwargs):
        raise AssertionError("warm cache run built a multicore core")

    monkeypatch.setattr(Multicore, "run", _boom)
    monkeypatch.setattr(SSTCore, "__init__", _no_core)
    warm_cache = ResultCache(tmp_path)
    warm, warm_row = _env_run(warm_cache)
    fields = ("key", "cycles", "instructions", "ipc")
    assert [warm_row[f] for f in fields] == [cold_row[f] for f in fields]
    assert multicore_behavior(warm) == multicore_behavior(cold)
    assert all(isinstance(core.state, CachedState)
               for core in warm.per_core)
    assert (warm_cache.stats.hits, warm_cache.stats.misses) == (1, 0)


@pytest.mark.parametrize("gate", ["0", "1"])
def test_multicore_runs_follow_the_point_cache_gate(tmp_path, monkeypatch,
                                                   gate):
    """``REPRO_CACHE`` and ``REPRO_CACHE_DIR`` decide for multicore runs
    exactly as for points."""
    monkeypatch.setenv("REPRO_CACHE", gate)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    env = BenchEnv(smoke=True)
    env.run_multicore(two_core_run(), machine="2xsst", program="x2")
    assert len(json_files(tmp_path)) == int(gate)


# ---------------------------------------------------------------------------
# A lookup serves only the kind of result its caller asked for.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stored, asked", [
    ("multicore", CoreResult), ("point", MulticoreResult)])
def test_lookup_of_the_other_kind_is_an_invalid_miss(
        tmp_path, config, program, multicore_result, stored, asked):
    result = (multicore_result if stored == "multicore"
              else simulate(config, program))
    cache = ResultCache(tmp_path)
    key = result_key(config, program, 1000)
    cache.store(key, result)
    assert cache.load(key, asked) is None
    assert (cache.stats.invalid, cache.stats.misses) == (1, 1)
    assert cache.load(key, type(result)) is not None


def test_multicore_entry_without_a_state_digest_is_an_invalid_miss(
        tmp_path, multicore_result):
    """A multicore entry one of whose cores lost its state digest
    cannot be verified, so it is never served."""
    cache = ResultCache(tmp_path)
    sound = multicore_key(two_core_run(), 1000)
    broken = multicore_key(two_core_run(), 2000)
    for key in (sound, broken):
        cache.store(key, multicore_result)
    path = tmp_path / f"{broken}.json"
    payload = json.loads(path.read_text())
    core = payload["result"]["fields"]["per_core"][1]
    del core["fields"]["state"]["__state__"]["digest"]
    path.write_text(json.dumps(payload))

    assert cache.load(broken, MulticoreResult) is None
    assert (cache.stats.invalid, cache.stats.misses) == (1, 1)
    assert cache.load(sound, MulticoreResult) is not None


# ---------------------------------------------------------------------------
# Bugfix: a renamed/copied file must not serve the wrong result.
# ---------------------------------------------------------------------------


def test_key_mismatched_file_is_invalid_not_served(tmp_path, config,
                                                   program):
    cache = ResultCache(tmp_path)
    result = simulate(config, program)
    key = result_key(config, program, 1000)
    other_key = result_key(config, program, 2000)
    cache.store(key, result)
    # Simulate a rename/copy mistake: the file now addresses a point it
    # does not contain.
    shutil.copy(tmp_path / f"{key}.json", tmp_path / f"{other_key}.json")

    assert cache.load(other_key) is None  # never the wrong result
    assert cache.stats.invalid == 1
    assert_same_point(cache.load(key), result)  # the honest entry serves


# ---------------------------------------------------------------------------
# Bugfix: a corrupt cached result is quarantined and re-simulated, not
# a permanent error.
# ---------------------------------------------------------------------------


def _store_doctored(cache, task, doctor):
    """Cache a result, then rewrite one field of its entry so the state
    fails golden verification (silent bit-rot in a cached file)."""
    result = simulate(task.config, task.program,
                      max_instructions=task.max_instructions)
    key = result_key(task.config, task.program, task.max_instructions)
    cache.store(key, result)
    path = cache.root / f"{key}.json"
    payload = json.loads(path.read_text())
    state = payload["result"]["fields"]["state"]["__state__"]
    if doctor == "register":
        state["regs"][1] ^= 0xDEAD
    else:
        state["digest"] = "0" * 64
    path.write_text(json.dumps(payload))
    return key


def test_verify_failure_quarantines_and_resimulates(tmp_path, config,
                                                    program):
    """Under ``verify=True`` a hit compares its registers exactly and
    its digest with the golden run's; either doctored, the entry is
    quarantined and the point re-simulated."""
    task = SimTask(config=config, program=program, verify=True)
    for doctor in ("register", "digest"):
        root = tmp_path / doctor
        cache = ResultCache(root)
        key = _store_doctored(cache, task, doctor)

        outcomes = ParallelRunner(cache=cache).run_outcomes([task])
        assert outcomes[0].ok  # the point recovered by re-simulation
        assert not outcomes[0].cached
        assert cache.stats.invalid == 1
        # The quarantined entry was replaced by the sound
        # re-simulation...
        assert_same_point(ResultCache(root).load(key), outcomes[0].result)
        # ...so the next run is a clean cache hit.
        again = ParallelRunner(cache=ResultCache(root)) \
            .run_outcomes([task])
        assert again[0].cached
        assert_same_point(again[0].result, outcomes[0].result)


def test_doctored_entry_is_served_without_verify(tmp_path, config,
                                                 program):
    """Only ``verify=True`` golden-checks a hit; the doctored digest is
    what the firewall would then see and flag."""
    cache = ResultCache(tmp_path)
    task = SimTask(config=config, program=program)
    _store_doctored(cache, task, "digest")
    [outcome] = ParallelRunner(cache=cache).run_outcomes([task])
    assert outcome.cached
    assert point_behavior(outcome.result)["state_hash"] == "0" * 64


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
    assert_same_point(ResultCache(tmp_path).load(key), warm[0].result)


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
    assert json_files(tmp_path) == []

    # A multicore run goes through the same helper.
    monkeypatch.delitem(cache_mod._DATACLASSES, "MulticoreResult")
    with pytest.warns(RuntimeWarning, match="cache store failed"):
        result, row = _env_run(ResultCache(tmp_path))
    assert row["cycles"] == result.makespan > 0
    assert json_files(tmp_path) == []


def test_disk_store_failure_warns_and_continues(tmp_path, config,
                                                program):
    blocked = tmp_path / "not-a-dir"
    blocked.write_text("in the way")  # mkdir(parents=True) will raise
    runner = ParallelRunner(cache=ResultCache(blocked))
    task = SimTask(config=config, program=program)
    with pytest.warns(RuntimeWarning, match="cache store failed"):
        outcomes = runner.run_outcomes([task])
    assert outcomes[0].ok
    with pytest.warns(RuntimeWarning, match="cache store failed"):
        result, row = _env_run(ResultCache(blocked))
    assert row["cycles"] == result.makespan > 0


def test_invalidate_counts_and_deletes(tmp_path, config, program):
    cache = ResultCache(tmp_path)
    key = result_key(config, program, 1000)
    assert not cache.invalidate(key)  # nothing there yet
    cache.store(key, simulate(config, program))
    assert cache.invalidate(key)
    assert cache.stats.invalid == 1
    assert cache.load(key) is None
