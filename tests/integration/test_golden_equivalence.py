"""Every workload × every machine ends in the golden architectural
state.  This is the end-to-end version of the per-core unit checks."""

import pytest

from repro.config import (
    SSTConfig,
    MachineConfig,
    ea_machine,
    inorder_machine,
    ooo_machine,
    scout_machine,
    sst_machine,
)
from repro.sim.runner import simulate
from repro.workloads import full_suite
from tests.conftest import small_hierarchy_config


def machines():
    hierarchy = small_hierarchy_config()
    return [
        inorder_machine(hierarchy),
        scout_machine(hierarchy),
        ea_machine(hierarchy),
        sst_machine(hierarchy),
        ooo_machine(hierarchy, rob_size=64),
        MachineConfig(hierarchy=hierarchy,
                      sst=SSTConfig(checkpoints=4, dq_size=8, sb_size=4),
                      name="sst-stressed"),
        MachineConfig(hierarchy=hierarchy,
                      sst=SSTConfig(bypass_unresolved_stores=False),
                      name="sst-conservative"),
    ]


@pytest.mark.parametrize("program", full_suite("tiny"),
                         ids=lambda program: program.name)
@pytest.mark.parametrize("machine", machines(),
                         ids=lambda machine: machine.name)
def test_workload_machine_golden(machine, program):
    simulate(machine, program, verify=True, max_instructions=5_000_000)
