"""E14 — the chip-multiprocessor argument.

Fix a die budget and an off-chip bandwidth limit; fill the die with
in-order, SST, or OoO cores (area model); scale each core's measured
single-core behaviour to chip throughput with bandwidth capping.
Expected: SST's small-area, high-per-thread cores give the best chip
throughput on the commercial mix — the reason ROCK was built this way.
"""

from repro.config import inorder_machine, ooo_machine, sst_machine
from repro.experiments.spec import expect, experiment
from repro.power import chip_throughput, cores_per_die
from repro.stats.report import Table, geomean

DIE_BUDGET = 24.0  # relative units: ~24 scalar in-order cores
CHIP_BW = 24.0  # bytes per cycle off-chip: fast cores can saturate it


@experiment(
    eid="e14", slug="cmp_throughput",
    title="Chip throughput at a fixed die and bandwidth budget",
    tags=("power", "cmp"),
    expectations=(
        expect("sst_die_beats_inorder_die",
               "a die of SST cores out-throughputs a die of in-order "
               "cores on commercial work",
               lambda m: m["chip_ipc_geomean"]["sst"]
               > m["chip_ipc_geomean"]["inorder"]),
        expect("sst_die_beats_ooo_die",
               "a die of SST cores out-throughputs a die of big OoO "
               "cores on commercial work",
               lambda m: m["chip_ipc_geomean"]["sst"]
               > m["chip_ipc_geomean"]["ooo-128"]),
    ),
)
def build(env):
    hierarchy = env.hierarchy()
    points = [
        ("inorder", inorder_machine(hierarchy)),
        ("sst", sst_machine(hierarchy)),
        ("ooo-128", ooo_machine(hierarchy, rob_size=128)),
    ]
    table = Table(
        f"E14: chip throughput at die budget {DIE_BUDGET:.0f}, "
        f"bandwidth {CHIP_BW:.0f} B/cyc",
        ["workload", "machine", "cores/die", "per-core IPC",
         "BW-bound?", "chip IPC"],
    )
    chip_ipc = {name: [] for name, _ in points}
    for program in env.commercial_suite():
        for name, machine in points:
            cores = cores_per_die(machine.sst or machine.ooo, DIE_BUDGET)
            result = env.run(machine, program)
            point = chip_throughput(result, cores=cores,
                                    chip_bw_limit=CHIP_BW)
            chip_ipc[name].append(point.throughput)
            table.add_row(
                program.name, name, cores,
                round(point.per_core_ipc, 3),
                "yes" if point.bandwidth_bound else "no",
                round(point.throughput, 2),
            )
    table.add_row(
        "geomean chip IPC", "", "", "", "",
        "/".join(f"{geomean(chip_ipc[name]):.2f}" for name, _ in points),
    )
    return table, {
        "chip_ipc": chip_ipc,
        "chip_ipc_geomean": {name: geomean(values)
                             for name, values in chip_ipc.items()},
    }
