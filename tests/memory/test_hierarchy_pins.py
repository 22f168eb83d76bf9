"""Pins of the memory hierarchy's observable behaviour.

Each case drives a seeded stream of loads, stores, prefetches and
instruction fetches through a small hierarchy.  Issue cycles mostly
advance but step back by up to 300 cycles, as out-of-order and SST
issue does, so MSHR expiry, merges into in-flight fills and full-file
stalls all happen out of cycle order.

A case pins one SHA-256 over every returned ``(ready_cycle, level,
tlb_miss)`` and one over each statistics record, plus a few literal
counters so that a failure says what moved.  These statistics ride in
every cached ``CoreResult`` (``extra["hierarchy"]``, ``["l1d"]``,
``["l2"]``) and experiments e06, e13 and e14 tabulate them, so a change
to the memory layer that is meant to be speed-only must keep them all.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.cmp.shared import build_shared_hierarchies
from repro.config import CacheConfig, DRAMConfig, HierarchyConfig, TLBConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.request import AccessType, HitLevel

LINE = 64
STREAM_LENGTH = 4000
MAX_STEP_BACK = 300


def small_config(**overrides) -> HierarchyConfig:
    """Two L1D MSHR entries, a four-set L1D and a small L2, so that the
    file fills and both caches evict dirty lines."""
    return HierarchyConfig(
        l1d=CacheConfig(size_bytes=512, assoc=2, hit_latency=2,
                        mshr_entries=2),
        l1i=CacheConfig(size_bytes=512, assoc=2, hit_latency=1,
                        mshr_entries=2),
        l2=CacheConfig(size_bytes=4096, assoc=4, hit_latency=10,
                       mshr_entries=4),
        dram=DRAMConfig(latency=120, min_interval=4),
        **overrides,
    )


def drive(hierarchies, seed):
    """Run one seeded stream; returns (results digest, event counts)."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    events = {"step_backs": 0, "merge_l1": 0, "merge_l2": 0,
              "store_into_evicted_fill": 0}
    # Three strided streams (8, 16 and 24 bytes a step, one per pc) that
    # walk new lines, so that accesses merge into their line's fill.
    strides = {pc: (0x8000 * pc, 8 * pc) for pc in range(1, 4)}
    cursor = {pc: 0 for pc in strides}
    now = 0
    for _ in range(STREAM_LENGTH):
        hierarchy = hierarchies[rng.randrange(len(hierarchies))]
        now += rng.randrange(0, 40)
        cycle = now
        if rng.random() < 0.15:
            cycle = max(0, now - rng.randrange(1, MAX_STEP_BACK + 1))
            events["step_backs"] += 1
        pick = rng.random()
        pc = 0
        if pick < 0.75:
            # Twelve hot lines, three to a set of the four-set L1D.
            addr = rng.randrange(12) * 3 * LINE + rng.randrange(0, LINE, 8)
        elif pick < 0.95:
            pc = rng.randrange(1, 4)
            base, stride = strides[pc]
            addr = base + cursor[pc] * stride
            cursor[pc] = (cursor[pc] + 1) % 512
        else:
            addr = rng.randrange(1024) * LINE
        op = rng.random()
        if op < 0.05:
            result = hierarchy.ifetch(rng.randrange(256), cycle)
        elif op < 0.2:
            result = hierarchy.prefetch(addr, cycle)
        else:
            store = op < 0.45
            absent = not hierarchy.l1d.contains(addr + hierarchy.addr_offset)
            result = hierarchy.data_access(
                addr, cycle,
                AccessType.STORE if store else AccessType.LOAD)
            if result.level is HitLevel.MERGE_L1:
                events["merge_l1"] += 1
            elif result.level is HitLevel.MERGE_L2:
                events["merge_l2"] += 1
            if (store and absent
                    and result.level in (HitLevel.MERGE_L1,
                                         HitLevel.MERGE_L2)):
                events["store_into_evicted_fill"] += 1
        digest.update(repr((result.ready_cycle, result.level.value,
                            result.tlb_miss)).encode())
    for hierarchy in hierarchies:
        hierarchy.check_invariants()
    return digest.hexdigest(), events


def stats_records(hierarchy):
    """Every statistics record one hierarchy reports, by name."""
    records = {
        "hierarchy": hierarchy.stats,
        "l1d": hierarchy.l1d.stats,
        "l1i": hierarchy.l1i.stats,
        "l2": hierarchy.l2.stats,
        "l1d_mshr": hierarchy.l1d_mshr.stats,
        "l1i_mshr": hierarchy.l1i_mshr.stats,
        "l2_mshr": hierarchy.l2_mshr.stats,
        "dram": hierarchy.dram.stats,
    }
    if hierarchy.dtlb is not None:
        records["dtlb"] = hierarchy.dtlb.stats
    return {name: dataclasses.asdict(record)
            for name, record in records.items()}


def stats_digests(hierarchies):
    """One SHA-256 prefix per record name, over every hierarchy's copy."""
    records = [stats_records(hierarchy) for hierarchy in hierarchies]
    return {name: hashlib.sha256(repr([r[name] for r in records])
                                 .encode()).hexdigest()[:16]
            for name in records[0]}


CASES = {
    "private": lambda: [MemoryHierarchy(small_config())],
    "tlb": lambda: [MemoryHierarchy(small_config(
        tlb=TLBConfig(entries=4, page_bytes=4096, walk_latency=30)))],
    "shared": lambda: build_shared_hierarchies(small_config(), 2),
    "shared_l1": lambda: build_shared_hierarchies(small_config(), 2,
                                                  share_l1=True),
}

# Each case's stream seed, fixed so that adding or deleting a case
# reseeds no other case.
SEEDS = {"private": 0, "shared": 1, "shared_l1": 2, "tlb": 4}

RESULT_PINS = {
    "private":
        "d054e42d5b92df4d5158dc0aea1ed619444fe899cc84bf1589af412523312225",
    "shared":
        "69b555cd0bbe6b012b1d32a2fbbf1ab8d9bd058aa706a4ae663ff61c1b02319a",
    "shared_l1":
        "2c763d355a0833c01c1b5b0903a2edc072042003d5085e5932b6d2417e922e4e",
    "tlb":
        "b88843451b2d43cbcf2438557b56f27ffa53429bea85565888fcc1e31c9c9c6f",
}

STATS_PINS = {
    "private": {
        "hierarchy": "3c413dd622ca5b44",
        "l1d": "34f339ed57993a5d",
        "l1i": "c533387cb04f1f9d",
        "l2": "81a65eaa1b67becd",
        "l1d_mshr": "731a604eacb658a6",
        "l1i_mshr": "0cb68f2cfa72ca39",
        "l2_mshr": "4b0d75f9210c048f",
        "dram": "b857ce1892685aab",
    },
    "shared": {
        "hierarchy": "391e62282bd72e83",
        "l1d": "8af4b869e521a5bf",
        "l1i": "5f21d9fbe8d1c81d",
        "l2": "c658a9ae9e11924a",
        "l1d_mshr": "24ab0e4ede69d266",
        "l1i_mshr": "5fd8445bcd42c3cc",
        "l2_mshr": "a53937acc613cdc0",
        "dram": "cbbcbb479db0a928",
    },
    "shared_l1": {
        "hierarchy": "13e2064a274540a3",
        "l1d": "4235188d5defb806",
        "l1i": "ccd1962617c0a740",
        "l2": "2917441cb7dfbd7e",
        "l1d_mshr": "2296f7e4d21cc735",
        "l1i_mshr": "96dbbcc3beaabbec",
        "l2_mshr": "305afe39ef40d2d1",
        "dram": "f1f3895e69217010",
    },
    "tlb": {
        "hierarchy": "83ffb81e0b03fa44",
        "l1d": "b69adb0855dc628d",
        "l1i": "b3497ded201b1ff4",
        "l2": "dbed954077ab6a88",
        "l1d_mshr": "a711d415f8e231a0",
        "l1i_mshr": "d0b50811b2e48c7e",
        "l2_mshr": "4c6d838558a477ba",
        "dram": "85c7e214266cf477",
        "dtlb": "e6658a2eaed27ec9",
    },
}

# A few counters of each case, literally: (demand_accesses, demand_l1_hits,
# demand_l2_hits, demand_dram, demand_merges, fastpath_l1d), then L1D and
# L2 writebacks, L1D MSHR full stalls and DRAM accesses, summed over the
# case's hierarchies (shared structures counted once).
COUNTER_PINS = {
    "private": (3225, 1286, 1482, 345, 112, 564, 845, 157, 607, 606),
    "shared": (3185, 1235, 1281, 552, 117, 583, 825, 263, 610, 1039),
    "shared_l1": (3195, 589, 1896, 588, 122, 83, 944, 293, 2234, 1113),
    "tlb": (3218, 1307, 1443, 329, 139, 543, 843, 168, 631, 628),
}


def counters(hierarchies):
    demand = tuple(
        sum(getattr(h.stats, name) for h in hierarchies)
        for name in ("demand_accesses", "demand_l1_hits", "demand_l2_hits",
                     "demand_dram", "demand_merges", "fastpath_l1d"))
    l1ds = {id(h.l1d): h.l1d for h in hierarchies}.values()
    mshrs = {id(h.l1d_mshr): h.l1d_mshr for h in hierarchies}.values()
    return demand + (
        sum(cache.stats.writebacks for cache in l1ds),
        hierarchies[0].l2.stats.writebacks,
        sum(mshr.stats.full_stalls for mshr in mshrs),
        hierarchies[0].dram.stats.accesses,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_hierarchy_pins(case):
    hierarchies = CASES[case]()
    results, events = drive(hierarchies, seed=SEEDS[case])
    records = [stats_records(hierarchy) for hierarchy in hierarchies]
    assert counters(hierarchies) == COUNTER_PINS[case]
    assert stats_digests(hierarchies) == STATS_PINS[case]
    assert results == RESULT_PINS[case]
    # The stream reaches every path the pins are meant to cover.
    assert events["step_backs"] > 0
    assert events["merge_l1"] > 0 and events["merge_l2"] > 0
    assert events["store_into_evicted_fill"] > 0
    assert all(r["hierarchy"]["fastpath_l1d"] > 0 for r in records)
    assert all(r["l1d_mshr"]["full_stalls"] > 0 for r in records)
    assert all(r["l1d"]["writebacks"] > 0 for r in records)
    assert records[0]["l2"]["writebacks"] > 0
    if case == "tlb":
        assert records[0]["dtlb"]["misses"] > 0
