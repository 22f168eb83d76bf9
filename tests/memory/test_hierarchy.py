"""Assembled hierarchy timing: hit/miss levels, merges, MLP, prefetch,
ifetch."""

import pytest

from repro.config import CacheConfig, DRAMConfig, HierarchyConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.request import AccessResult, AccessType, HitLevel


def make_hierarchy(latency=300, interval=0, mshr=8):
    return MemoryHierarchy(HierarchyConfig(
        l1d=CacheConfig(size_bytes=4 * 1024, assoc=2, hit_latency=2,
                        mshr_entries=mshr),
        l1i=CacheConfig(size_bytes=4 * 1024, assoc=2, hit_latency=1,
                        mshr_entries=4),
        l2=CacheConfig(size_bytes=32 * 1024, assoc=4, hit_latency=10,
                       mshr_entries=16),
        dram=DRAMConfig(latency=latency, min_interval=interval),
    ))


def test_cold_miss_goes_to_dram():
    hierarchy = make_hierarchy()
    result = hierarchy.data_access(0x10000, cycle=0)
    assert result.level is HitLevel.DRAM
    assert result.went_to_dram
    # l1 lookup (2) + miss detect -> l2 probe, l2 tag (10) + dram (300)
    assert result.ready_cycle == 2 + 10 + 300


def test_access_result_is_immutable():
    result = make_hierarchy().data_access(0x10000, cycle=0)
    with pytest.raises(AttributeError):
        result.ready_cycle = 0
    with pytest.raises(AttributeError):
        result.tlb_miss = True


def test_every_path_returns_a_whole_access_result():
    # The hierarchy builds results with tuple.__new__, which skips the
    # NamedTuple's defaults: every path must give every field.
    hierarchy = make_hierarchy()
    results = [hierarchy.data_access(0x10000, cycle=0),  # miss
               hierarchy.data_access(0x10008, cycle=1),  # merge
               hierarchy.data_access(0x10000, cycle=1000),  # hit
               hierarchy.prefetch(0x20000, cycle=0),
               hierarchy.prefetch(0x20000, cycle=1),
               hierarchy.prefetch(0x20000, cycle=1000),
               hierarchy.ifetch(0, cycle=0),
               hierarchy.ifetch(0, cycle=1000)]
    for result in results:
        assert type(result) is AccessResult
        assert len(result) == len(AccessResult._fields)
        assert result.tlb_miss is False


def test_second_access_hits_l1():
    hierarchy = make_hierarchy()
    hierarchy.data_access(0x10000, cycle=0)
    result = hierarchy.data_access(0x10008, cycle=1000)
    assert result.level is HitLevel.L1
    assert result.ready_cycle == 1002


def test_access_during_fill_merges():
    hierarchy = make_hierarchy()
    first = hierarchy.data_access(0x10000, cycle=0)
    merged = hierarchy.data_access(0x10008, cycle=5)
    assert merged.level is HitLevel.MERGE_L2
    assert merged.ready_cycle == first.ready_cycle
    assert merged.went_to_dram


def test_l2_hit_after_l1_eviction():
    hierarchy = make_hierarchy()
    hierarchy.data_access(0x10000, cycle=0)
    # Thrash the L1 set of 0x10000 (L1 has 32 sets of 64B lines; same
    # set lines are 2KB apart for assoc=2).
    hierarchy.data_access(0x10000 + 2048, cycle=1000)
    hierarchy.data_access(0x10000 + 4096, cycle=2000)
    result = hierarchy.data_access(0x10000, cycle=3000)
    assert result.level is HitLevel.L2


def test_independent_misses_overlap():
    hierarchy = make_hierarchy(mshr=8)
    first = hierarchy.data_access(0x10000, cycle=0)
    second = hierarchy.data_access(0x20000, cycle=1)
    # Both outstanding simultaneously: second finishes ~1 cycle later,
    # not a full latency later.
    assert second.ready_cycle - first.ready_cycle <= 10


def test_mshr_limit_serialises():
    hierarchy = make_hierarchy(mshr=1)
    first = hierarchy.data_access(0x10000, cycle=0)
    second = hierarchy.data_access(0x20000, cycle=1)
    assert second.ready_cycle >= first.ready_cycle + 300


def test_store_marks_line_dirty_and_counts():
    hierarchy = make_hierarchy()
    hierarchy.data_access(0x10000, cycle=0, access_type=AccessType.STORE)
    assert hierarchy.l1d.stats.misses == 1


def test_store_into_fill_of_evicted_line_reallocates_it():
    # One-line L1D: the second load evicts 0x1000 while its fill is still
    # in flight, so the store merges with that fill on a line whose tag
    # is gone and must write-allocate it again before dirtying it.
    hierarchy = MemoryHierarchy(HierarchyConfig(
        l1d=CacheConfig(size_bytes=64, assoc=1, hit_latency=2)))
    first = hierarchy.data_access(0x1000, cycle=0)
    hierarchy.data_access(0x2000, cycle=1)
    store = hierarchy.data_access(0x1000, cycle=2,
                                  access_type=AccessType.STORE)
    assert store.level is HitLevel.MERGE_L2
    assert store.ready_cycle == first.ready_cycle
    assert hierarchy.l1d.contains(0x1000)
    assert not hierarchy.l1d.contains(0x2000)
    # The reinstalled line is dirty: evicting it counts a writeback.
    hierarchy.data_access(0x3000, cycle=10_000)
    assert hierarchy.l1d.stats.writebacks == 1
    hierarchy.check_invariants()


def test_reallocated_store_writes_its_dirty_victim_back_to_l2():
    # One-line L1D over a one-set, four-way L2.  The store to 0x1000
    # re-allocates its evicted in-flight line and so evicts the dirty
    # 0x2000, which must be written back: the L2 line turns dirty.
    hierarchy = MemoryHierarchy(HierarchyConfig(
        l1d=CacheConfig(size_bytes=64, assoc=1, hit_latency=2),
        l2=CacheConfig(size_bytes=256, assoc=4, hit_latency=10)))
    store = AccessType.STORE
    hierarchy.data_access(0x1000, cycle=0, access_type=store)
    hierarchy.data_access(0x2000, cycle=1, access_type=store)
    merged = hierarchy.data_access(0x1000, cycle=2, access_type=store)
    assert merged.level is HitLevel.MERGE_L2
    assert hierarchy.l1d.stats.writebacks == 2
    # Four new lines evict both L2 lines: each was dirty.
    for index in range(4):
        hierarchy.data_access(0x10000 + 0x1000 * index, cycle=10_000)
    assert hierarchy.l2.stats.evictions == 2
    assert hierarchy.l2.stats.writebacks == 2


def test_prefetch_warms_without_demand_stats():
    hierarchy = make_hierarchy()
    hierarchy.prefetch(0x10000, cycle=0)
    demand = hierarchy.stats.demand_accesses
    assert demand == 0
    result = hierarchy.data_access(0x10000, cycle=1000)
    assert result.level is HitLevel.L1


def test_prefetch_of_inflight_line_reports_pending_time():
    hierarchy = make_hierarchy()
    first = hierarchy.data_access(0x10000, cycle=0)
    again = hierarchy.prefetch(0x10008, cycle=3)
    assert again.ready_cycle == first.ready_cycle


def test_ifetch_uses_l1i_and_shares_l2():
    hierarchy = make_hierarchy()
    first = hierarchy.ifetch(0, cycle=0)
    assert first.level is HitLevel.DRAM
    hit = hierarchy.ifetch(1, cycle=1000)  # same line (4B/inst, 64B line)
    assert hit.level is HitLevel.L1
    assert hierarchy.stats.ifetches == 2


def test_dram_bandwidth_queues_bursts():
    hierarchy = make_hierarchy(interval=8)
    results = [
        hierarchy.data_access(0x10000 + 0x1000 * index, cycle=0)
        for index in range(4)
    ]
    readies = [result.ready_cycle for result in results]
    assert readies == sorted(readies)
    assert readies[-1] - readies[0] >= 3 * 8


def test_stats_classification():
    # Access times are non-decreasing, matching the cores' contract.
    hierarchy = make_hierarchy()
    hierarchy.data_access(0x10000, cycle=0)  # dram
    hierarchy.data_access(0x10008, cycle=5)  # merge into the fill
    hierarchy.data_access(0x10000, cycle=1000)  # l1 hit
    stats = hierarchy.stats
    assert stats.demand_accesses == 3
    assert stats.demand_dram == 1
    assert stats.demand_l1_hits == 1
    assert stats.demand_merges == 1
    assert stats.dram_fraction == pytest.approx(1 / 3)


def test_check_invariants_after_traffic():
    hierarchy = make_hierarchy()
    for index in range(200):
        hierarchy.data_access(0x1000 * index, cycle=index * 10)
    hierarchy.check_invariants()
