"""E15 — TLB reach and defer-on-TLB-miss.

Random probes over a table far beyond TLB reach make the table walk a
first-class latency event.  Sweep TLB entries and toggle whether a
walk opens a speculative episode: with the trigger on, walks are
overlapped like cache misses; with it off they serialise.
"""

import dataclasses

from repro.config import (
    MachineConfig,
    SSTConfig,
    TLBConfig,
    inorder_machine,
)
from repro.experiments.spec import expect, experiment
from repro.stats.report import Table
from repro.workloads import hash_join

TLB_ENTRIES = (16, 64, 256)


def _hierarchy(env, entries: int):
    return dataclasses.replace(
        env.hierarchy(),
        tlb=TLBConfig(entries=entries, page_bytes=8192, walk_latency=120),
    )


def _sst(env, entries: int, defer_on_tlb: bool) -> MachineConfig:
    suffix = "tlbdefer" if defer_on_tlb else "notlbdefer"
    return MachineConfig(
        hierarchy=_hierarchy(env, entries),
        sst=SSTConfig(defer_on_tlb_miss=defer_on_tlb),
        name=f"sst-{entries}e-{suffix}",
    )


@experiment(
    eid="e15", slug="tlb",
    title="TLB reach and defer-on-TLB-miss",
    tags=("memory", "ablation"),
    expectations=(
        expect("walk_deferral_pays_when_starved",
               "deferring on walks pays when walks are frequent",
               lambda m: m["defer_gains"][0] > 1.0),
        expect("walk_deferral_fades_with_reach",
               "walk deferral matters less once the TLB covers the "
               "working set",
               lambda m: m["defer_gains"][-1]
               <= m["defer_gains"][0] + 0.1),
    ),
)
def build(env):
    program = hash_join(table_words=env.scaled(1 << 16),
                        probes=env.scaled(3000))
    table = Table(
        "E15: TLB reach and defer-on-TLB-miss (db-hashjoin)",
        ["tlb entries", "tlb miss rate", "inorder IPC",
         "sst IPC (defer on walk)", "sst IPC (no walk defer)"],
    )
    gains = []
    for entries in TLB_ENTRIES:
        base = env.run(inorder_machine(_hierarchy(env, entries)), program)
        with_defer = env.run(_sst(env, entries, True), program)
        without = env.run(_sst(env, entries, False), program)
        gains.append(with_defer.ipc / max(without.ipc, 1e-9))
        table.add_row(
            entries,
            f"{base.extra['dtlb'].miss_rate:.0%}",
            round(base.ipc, 3),
            round(with_defer.ipc, 3),
            round(without.ipc, 3),
        )
    return table, {"defer_gains": gains,
                   "tlb_entries": list(TLB_ENTRIES)}
