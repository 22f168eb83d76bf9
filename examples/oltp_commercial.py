#!/usr/bin/env python3
"""The paper's headline comparison on the commercial workload mix.

Runs the commercial suite (OLTP-style pointer chasing, a DB hash-join
probe, index lookups, and a store-heavy session log) across the four
design points of the paper's narrative — in-order, hardware scout,
execute-ahead, SST — plus an out-of-order comparator, and prints the
speedup table.

Run:  python examples/oltp_commercial.py          (about 20 seconds)
      python examples/oltp_commercial.py --quick  (seconds, smaller runs)
"""

import sys

from repro import (
    commercial_suite,
    ea_machine,
    inorder_machine,
    ooo_machine,
    scout_machine,
    speedup_table,
    sst_machine,
)
from repro.config import CacheConfig, DRAMConfig, HierarchyConfig


def hierarchy() -> HierarchyConfig:
    """A reduced memory system sized against the suite's working sets."""
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
    scale = "small" if "--quick" in sys.argv else "bench"
    machines = [
        inorder_machine(hierarchy()),
        scout_machine(hierarchy()),
        ea_machine(hierarchy()),
        sst_machine(hierarchy()),
        ooo_machine(hierarchy(), rob_size=128),
    ]
    table = speedup_table(
        f"Commercial suite ({scale} scale): speedup over in-order",
        commercial_suite(scale),
        machines,
        baseline_name="inorder-2w",
    )
    print(table)
    print()
    print("Reading the table: SST should lead the geomean, with scout")
    print("and execute-ahead between it and the in-order baseline; the")
    print("big OoO core wins only where windows beat slices.")


if __name__ == "__main__":
    main()
