#!/usr/bin/env python3
"""Design-space walk: what core should fill a throughput chip?

For a fixed die budget and off-chip bandwidth, compares chips built of
in-order, execute-ahead, SST, and out-of-order cores on a commercial
workload: per-core IPC (measured by simulation), area (structure
model), energy per instruction (event model), and the resulting chip
throughput with bandwidth capping — the analysis behind ROCK's "many
small SST cores" design decision.

Run:  python examples/chip_design.py
"""

from repro import (
    chip_throughput,
    core_area,
    cores_per_die,
    ea_machine,
    estimate_energy,
    hash_join,
    inorder_machine,
    ooo_machine,
    simulate,
    sst_machine,
)
from repro.config import CacheConfig, DRAMConfig, HierarchyConfig

DIE_BUDGET = 24.0  # in units of one scalar in-order core
CHIP_BW = 24.0  # bytes/cycle off-chip


def hierarchy() -> HierarchyConfig:
    return HierarchyConfig(
        l1d=CacheConfig(size_bytes=16 * 1024, assoc=4, hit_latency=2,
                        mshr_entries=16),
        l1i=CacheConfig(size_bytes=16 * 1024, assoc=4, hit_latency=1,
                        mshr_entries=4),
        l2=CacheConfig(size_bytes=128 * 1024, assoc=8, hit_latency=20,
                       mshr_entries=32),
        dram=DRAMConfig(latency=300, min_interval=2),
    )


def main() -> None:
    program = hash_join(table_words=1 << 15, probes=1500)
    candidates = [
        ("in-order", inorder_machine(hierarchy())),
        ("execute-ahead", ea_machine(hierarchy())),
        ("SST", sst_machine(hierarchy())),
        ("OoO rob-128", ooo_machine(hierarchy(), rob_size=128)),
    ]
    print(f"workload: {program.name}   die budget {DIE_BUDGET:.0f} units, "
          f"off-chip {CHIP_BW:.0f} B/cyc")
    print()
    header = (f"{'core':14s} {'area':>6s} {'cores':>6s} {'IPC':>7s} "
              f"{'EPI':>7s} {'bw?':>4s} {'chip IPC':>9s}")
    print(header)
    print("-" * len(header))
    best = None
    for name, machine in candidates:
        core_config = machine.sst or machine.ooo
        result = simulate(machine, program)
        area = core_area(core_config)
        cores = cores_per_die(core_config, DIE_BUDGET)
        energy = estimate_energy(result)
        point = chip_throughput(result, cores=cores, chip_bw_limit=CHIP_BW)
        print(f"{name:14s} {area:6.2f} {cores:6d} {result.ipc:7.3f} "
              f"{energy.energy_per_instruction:7.1f} "
              f"{'yes' if point.bandwidth_bound else 'no':>4s} "
              f"{point.throughput:9.2f}")
        if best is None or point.throughput > best[1]:
            best = (name, point.throughput)
    print()
    print(f"best chip on this workload: {best[0]} "
          f"({best[1]:.2f} aggregate IPC)")
    print("Per-thread IPC alone does not decide the chip: core area")
    print("sets how many fit, and energy per instruction sets the power")
    print("bill.  The small, fast-enough SST core wins the aggregate —")
    print("the paper's thesis in one table.")


if __name__ == "__main__":
    main()
