#!/usr/bin/env python3
"""Hardware scout vs. retiring speculation.

Runs a regular stream and an irregular pointer chase on three machines
built from the same pipeline: a plain in-order core, a scout-only core
(run ahead purely to prefetch, always roll back) and an execute-ahead
core — the question of whether retiring the run-ahead work pays over
discarding it.

Run:  python examples/scout_prefetch.py
"""

from repro import (
    array_stream,
    ea_machine,
    inorder_machine,
    pointer_chase,
    scout_machine,
    simulate,
)
from repro.config import CacheConfig, DRAMConfig, HierarchyConfig


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


def report(name, result, baseline):
    line = (f"  {name:28s} {result.cycles:9d} cycles "
            f"({result.speedup_over(baseline):.2f}x)")
    stats = result.extra.get("sst")
    if stats is not None and stats.scout_prefetches:
        line += f"   scout prefetches: {stats.scout_prefetches}"
    print(line)


def main() -> None:
    workloads = [
        array_stream(words=1 << 15, name="fp-stream"),
        pointer_chase(chains=4, nodes_per_chain=2048, hops=2000,
                      name="oltp-chase"),
    ]
    for program in workloads:
        print(f"workload: {program.name}")
        base = simulate(inorder_machine(hierarchy()), program)
        report("inorder", base, base)
        scout = simulate(scout_machine(hierarchy()), program)
        report("hardware scout", scout, base)
        ea = simulate(ea_machine(hierarchy()), program)
        report("execute-ahead (retires!)", ea, base)
        print()
    print("Both run-ahead cores find the miss addresses the in-order")
    print("core stalls on.  On the regular stream scout and EA tie; on")
    print("irregular pointer chains retiring the run-ahead work (EA)")
    print("beats discarding it (scout).")


if __name__ == "__main__":
    main()
