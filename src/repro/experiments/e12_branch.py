"""E12 — branch-predictor sensitivity of deferred-branch speculation.

NA-operand branches ride the predictor; better predictors mean fewer
speculation failures and deeper surviving run-ahead.  Compared on the
unpredictable and the biased variants of the branchy workload.
"""

from repro.config import (
    BranchPredictorConfig,
    MachineConfig,
    PredictorKind,
    SSTConfig,
)
from repro.core import FailCause
from repro.experiments.spec import expect, experiment
from repro.stats.report import Table
from repro.workloads import branchy_reduce

PREDICTORS = (PredictorKind.ALWAYS_NOT_TAKEN, PredictorKind.BIMODAL,
              PredictorKind.GSHARE)

_STATIC = PredictorKind.ALWAYS_NOT_TAKEN.value
_GSHARE = PredictorKind.GSHARE.value


def _machine(env, kind: PredictorKind) -> MachineConfig:
    return MachineConfig(
        hierarchy=env.hierarchy(),
        sst=SSTConfig(predictor=BranchPredictorConfig(kind=kind)),
        name=f"sst-{kind.value}",
    )


@experiment(
    eid="e12", slug="branch",
    title="SST IPC and deferred-branch fails vs branch predictor",
    tags=("branch", "ablation"),
    expectations=(
        expect("gshare_fails_less",
               "on learnable data a real predictor fails less than "
               "static not-taken",
               lambda m: m["by_program"]["int-branchy-biased"][_GSHARE]
               ["fails"]
               < m["by_program"]["int-branchy-biased"][_STATIC]["fails"]),
        expect("gshare_runs_faster",
               "fewer deferred-branch failures translate into IPC",
               lambda m: m["by_program"]["int-branchy-biased"][_GSHARE]
               ["ipc"]
               > m["by_program"]["int-branchy-biased"][_STATIC]["ipc"]),
    ),
)
def build(env):
    programs = [
        branchy_reduce(iterations=env.scaled(4000),
                       data_words=env.scaled(1 << 15),
                       biased=False),
        branchy_reduce(iterations=env.scaled(4000),
                       data_words=env.scaled(1 << 15),
                       biased=True,
                       name="int-branchy-biased"),
    ]
    table = Table(
        "E12: SST IPC and deferred-branch fails vs predictor",
        ["workload", "predictor", "IPC", "deferred-branch fails"],
    )
    by_program = {}
    for program in programs:
        ipcs = {}
        for kind in PREDICTORS:
            result = env.run(_machine(env, kind), program)
            fails = result.extra["sst"].fails[
                FailCause.DEFERRED_BRANCH_MISPREDICT
            ]
            ipcs[kind.value] = {"ipc": result.ipc, "fails": fails}
            table.add_row(program.name, kind.value, round(result.ipc, 3),
                          fails)
        by_program[program.name] = ipcs
    return table, {"by_program": by_program}
