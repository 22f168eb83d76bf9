"""E13 — the power-efficiency claim.

Event-based energy for in-order / SST / OoO on the commercial suite:
energy per committed instruction (including the cost of discarded
speculative work) and ED².  Expected: SST's structures add modest
energy over in-order — far less than rename/ROB/IQ/LSQ add to the OoO
core — while its speed gives it the best ED² on miss-bound codes.
"""

import math

from repro.config import inorder_machine, ooo_machine, sst_machine
from repro.experiments.spec import expect, experiment
from repro.power import estimate_energy
from repro.stats.report import Table, geomean

# The energy of the structures an in-order core does without: the OoO
# window and the SST checkpoint/deferral machinery.
OVERHEAD_COMPONENTS = frozenset({
    "rename", "rob", "issue_queue", "lsq", "checkpoints", "deferred_queue",
    "store_buffer", "na_bits",
})


def overhead_share(breakdown) -> float:
    """The fraction of a run's energy spent in :data:`OVERHEAD_COMPONENTS`
    (summed exactly, so the share is the same on every Python)."""
    overhead = math.fsum(value for key, value
                         in breakdown.components.items()
                         if key in OVERHEAD_COMPONENTS)
    return overhead / breakdown.total


@experiment(
    eid="e13", slug="energy",
    title="Energy per instruction and ED2 for in-order / SST / OoO",
    tags=("power",),
    expectations=(
        expect("epi_ordering",
               "SST costs more energy than in-order (speculation is "
               "not free) but less than the OoO machinery",
               lambda m: m["epi_geomean"]["inorder-2w"]
               < m["epi_geomean"]["sst-2w-2ckpt"]
               < m["epi_geomean"]["ooo-4w-rob128"]),
        expect("sst_best_ed2_vs_ooo",
               "on miss-bound commercial codes SST beats the OoO's ED2",
               lambda m: m["ed2_geomean"]["sst-2w-2ckpt"]
               < m["ed2_geomean"]["ooo-4w-rob128"]),
        expect("sst_ed2_below_inorder",
               "SST's speed gives it better ED2 than the in-order base",
               lambda m: m["ed2_geomean"]["sst-2w-2ckpt"] < 1.0),
    ),
)
def build(env):
    hierarchy = env.hierarchy()
    configs = [
        inorder_machine(hierarchy),
        sst_machine(hierarchy),
        ooo_machine(hierarchy, rob_size=128),
    ]
    table = Table(
        "E13: energy per instruction and ED2 (relative units)",
        ["workload", "machine", "EPI", "window/ckpt EPI share",
         "rel. ED2 vs inorder"],
    )
    epi = {config.name: [] for config in configs}
    ed2_ratio = {config.name: [] for config in configs}
    for program in env.commercial_suite():
        breakdowns = {}
        for config in configs:
            result = env.run(config, program)
            breakdowns[config.name] = estimate_energy(result)
        base_ed2 = breakdowns[configs[0].name].energy_delay_squared
        for config in configs:
            breakdown = breakdowns[config.name]
            share = overhead_share(breakdown)
            relative_ed2 = breakdown.energy_delay_squared / base_ed2
            epi[config.name].append(breakdown.energy_per_instruction)
            ed2_ratio[config.name].append(relative_ed2)
            table.add_row(
                program.name, config.name,
                round(breakdown.energy_per_instruction, 1),
                f"{share:.0%}",
                round(relative_ed2, 3),
            )
    table.add_row(
        "geomean EPI", "",
        "/".join(f"{geomean(epi[c.name]):.0f}" for c in configs), "", "",
    )
    return table, {
        "epi": epi,
        "ed2": ed2_ratio,
        "epi_geomean": {name: geomean(values)
                        for name, values in epi.items()},
        "ed2_geomean": {name: geomean(values)
                        for name, values in ed2_ratio.items()},
    }
