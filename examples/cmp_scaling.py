#!/usr/bin/env python3
"""A real multicore run: eight programs, one chip.

Simulates (true interleaved execution, not a model) a chip of SST
cores with private L1s sharing an L2 and one DRAM channel, each core
running its own copy of the DB probe workload — ROCK's throughput-
computing use case.  Then swaps the same chip's cores for in-order
ones to show what speculation buys at the chip level.

Run:  python examples/cmp_scaling.py        (about a second)
"""

from repro import Multicore, hash_join
from repro.config import (
    CacheConfig,
    DRAMConfig,
    HierarchyConfig,
    SSTConfig,
)

CORES = 4


def hierarchy() -> HierarchyConfig:
    return HierarchyConfig(
        l1d=CacheConfig(size_bytes=16 * 1024, assoc=4, hit_latency=2,
                        mshr_entries=16),
        l1i=CacheConfig(size_bytes=16 * 1024, assoc=4, hit_latency=1,
                        mshr_entries=4),
        l2=CacheConfig(size_bytes=128 * 1024 * CORES, assoc=8,
                       hit_latency=20, mshr_entries=16 * CORES),
        dram=DRAMConfig(latency=300, min_interval=2),
    )


def programs():
    return [
        hash_join(table_words=1 << 14, probes=500, seed=seed,
                  name=f"db-hashjoin-{seed}")
        for seed in range(CORES)
    ]


def run_chip(label: str, core_config: SSTConfig):
    chip = Multicore(hierarchy(), [core_config] * CORES, programs())
    result = chip.run()
    print(f"{label}: aggregate IPC {result.aggregate_ipc:.3f} "
          f"(makespan {result.makespan} cycles)")
    for core_result in result.per_core:
        print(f"   {core_result.core_name:16s} "
              f"{core_result.cycles:8d} cycles  "
              f"IPC {core_result.ipc:.3f}")
    return result


def main() -> None:
    print(f"{CORES}-core chip, shared L2 + one DRAM channel, one DB "
          f"probe program per core\n")
    sst = run_chip("SST cores     ", SSTConfig(checkpoints=2))
    print()
    inorder = run_chip("in-order cores", SSTConfig(checkpoints=0))
    print()
    ratio = sst.aggregate_ipc / inorder.aggregate_ipc
    print(f"chip-level speedup from SST: {ratio:.1f}x — every core is")
    print("hiding its own misses, and the shared channel is what")
    print("finally limits them (watch per-core IPC dip below the")
    print("single-core number in examples/quickstart.py).")


if __name__ == "__main__":
    main()
