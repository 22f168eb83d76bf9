"""E10 — ablation: loads bypassing unresolved stores.

The scatter-update workload stores through a *missing* pointer, so the
store's address is unknown during speculation.  Conservative policy
defers every younger load behind it; bypass-and-check speculates and
pays a memory-order rollback on the rare true alias.  Expected: bypass
clearly wins when aliases are rare, and its advantage shrinks (but the
machine stays correct) as the alias rate rises.
"""

from repro.config import MachineConfig, SSTConfig
from repro.core import FailCause
from repro.experiments.spec import expect, experiment
from repro.stats.report import Table
from repro.workloads import scatter_update


def _machine(env, bypass: bool) -> MachineConfig:
    return MachineConfig(
        hierarchy=env.hierarchy(),
        sst=SSTConfig(bypass_unresolved_stores=bypass),
        name="sst-bypass" if bypass else "sst-conservative",
    )


@experiment(
    eid="e10", slug="membypass",
    title="Ablation: loads bypassing unresolved stores",
    tags=("sst", "memory", "ablation"),
    expectations=(
        expect("clean_bypass_wins",
               "alias-free: bypass wins outright",
               lambda m: m["gains"]["db-scatter-clean"] > 1.05),
        expect("clean_never_fails",
               "alias-free: the order checker never fires",
               lambda m: m["order_fails"]["db-scatter-clean"] == 0),
        expect("aliased_checker_fires",
               "with real aliases the checker fires",
               lambda m: m["order_fails"]["db-scatter-aliased"] > 0),
        expect("aliased_bypass_viable",
               "bypass stays viable under aliasing",
               lambda m: m["gains"]["db-scatter-aliased"] > 0.8),
    ),
)
def build(env):
    programs = [
        scatter_update(table_words=env.scaled(1 << 14),
                       updates=env.scaled(2000),
                       alias_per_1024=0, name="db-scatter-clean"),
        scatter_update(table_words=env.scaled(1 << 14),
                       updates=env.scaled(2000),
                       alias_per_1024=64, name="db-scatter-aliased"),
    ]
    table = Table(
        "E10: load bypass of unresolved stores (ablation)",
        ["workload", "conservative IPC", "bypass IPC", "bypass gain",
         "order fails", "order defers (conservative)"],
    )
    gains = {}
    fails = {}
    for program in programs:
        conservative = env.run(_machine(env, False), program)
        bypass = env.run(_machine(env, True), program)
        gain = bypass.speedup_over(conservative)
        gains[program.name] = gain
        fails[program.name] = bypass.extra["sst"].fails[
            FailCause.MEMORY_ORDER_VIOLATION
        ]
        table.add_row(
            program.name,
            round(conservative.ipc, 3),
            round(bypass.ipc, 3),
            f"{gain:.2f}x",
            fails[program.name],
            conservative.extra["sst"].order_deferred,
        )
    return table, {"gains": gains, "order_fails": fails}
