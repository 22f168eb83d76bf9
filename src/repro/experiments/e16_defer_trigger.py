"""E16 — ablation: which miss level opens an episode.

Defer on any L1 miss (aggressive: even an L2 hit parks the slice) vs
defer only on DRAM-bound misses (conservative: L2 hits stall-on-use).
Expected: L1-triggered deferral wins when L2 hit latency is large
enough to be worth hiding, and the two converge on DRAM-dominated
codes.
"""

from repro.config import DeferTrigger, MachineConfig, SSTConfig
from repro.experiments.spec import expect, experiment
from repro.stats.report import Table
from repro.workloads import array_stream, hash_join, matrix_multiply


def _machine(env, trigger: DeferTrigger) -> MachineConfig:
    return MachineConfig(
        hierarchy=env.hierarchy(),
        sst=SSTConfig(defer_trigger=trigger),
        name=f"sst-{trigger.value}",
    )


@experiment(
    eid="e16", slug="defer_trigger",
    title="Ablation: defer trigger level (L1 miss vs DRAM-bound miss)",
    tags=("sst", "memory", "ablation"),
    expectations=(
        expect("l1_trigger_hides_l2_hits",
               "an L2-resident working set is where the L1 trigger "
               "earns its keep",
               lambda m: m["ratios"]["db-hashjoin-l2"] > 1.02),
        expect("triggers_converge_on_dram",
               "on the DRAM-dominated version the triggers converge",
               lambda m: 0.85 < m["ratios"]["db-hashjoin"] < 1.25),
    ),
)
def build(env):
    programs = [
        hash_join(table_words=env.scaled(1 << 16),
                  probes=env.scaled(3000)),  # DRAM-dominated
        hash_join(table_words=env.scaled(1 << 13),
                  probes=env.scaled(3000),
                  name="db-hashjoin-l2"),  # 64KB: misses L1, lives in L2
        array_stream(words=env.scaled(1 << 15)),
        matrix_multiply(n=env.scaled(20, floor=8)),
    ]
    table = Table(
        "E16: defer trigger level (L1 miss vs DRAM-bound miss)",
        ["workload", "IPC defer@L1", "IPC defer@L2miss", "ratio",
         "episodes@L1", "episodes@L2miss"],
    )
    ratios = {}
    for program in programs:
        aggressive = env.run(_machine(env, DeferTrigger.L1_MISS), program)
        lazy = env.run(_machine(env, DeferTrigger.L2_MISS), program)
        ratio = aggressive.ipc / max(lazy.ipc, 1e-9)
        ratios[program.name] = ratio
        table.add_row(
            program.name,
            round(aggressive.ipc, 3),
            round(lazy.ipc, 3),
            f"{ratio:.2f}x",
            aggressive.extra["sst"].episodes,
            lazy.extra["sst"].episodes,
        )
    return table, {"ratios": ratios}
