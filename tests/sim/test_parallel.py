"""ParallelRunner: ordered collection, failure isolation and the
task fields that reach the simulation."""

import dataclasses

import pytest

from repro.config import (
    ea_machine,
    inorder_machine,
    sst_machine,
)
from repro.errors import ExecutionError
from repro.sim.parallel import ParallelRunner, SimTask, SimTaskError
from repro.workloads import hash_join, pointer_chase
from tests.conftest import small_hierarchy_config


@pytest.fixture(scope="module")
def programs():
    return [hash_join(table_words=256, probes=32),
            pointer_chase(chains=2, nodes_per_chain=64, hops=40)]


def _matrix_tasks(programs):
    return [
        SimTask(config=config, program=program)
        for program in programs
        for config in (inorder_machine(small_hierarchy_config()),
                       sst_machine(small_hierarchy_config()),
                       ea_machine(small_hierarchy_config()))
    ]


# ---------------------------------------------------------------------------
# Ordering.
# ---------------------------------------------------------------------------


def test_results_come_back_in_submission_order(programs):
    tasks = _matrix_tasks(programs)
    outcomes = ParallelRunner().run_outcomes(tasks)
    assert [outcome.task for outcome in outcomes] == tasks


# ---------------------------------------------------------------------------
# Crash isolation.
# ---------------------------------------------------------------------------


def test_failing_task_isolated_with_skip(programs):
    good = SimTask(config=sst_machine(small_hierarchy_config()),
                   program=programs[0])
    # An absurdly small budget trips the runaway guard inside the run.
    bad = SimTask(config=sst_machine(small_hierarchy_config()),
                  program=programs[0], max_instructions=10)
    outcomes = ParallelRunner().run_outcomes([good, bad, good])
    assert [outcome.ok for outcome in outcomes] == [True, False, True]
    assert outcomes[1].result is None
    assert outcomes[0].result == outcomes[2].result


def test_failing_task_raises_after_batch(programs):
    bad = SimTask(config=sst_machine(small_hierarchy_config()),
                  program=programs[0], max_instructions=10)
    with pytest.raises(SimTaskError, match="ExecutionError"):
        ParallelRunner().run([bad])


def test_failure_detail_names_the_point(programs):
    bad = SimTask(config=sst_machine(small_hierarchy_config()),
                  program=programs[0], max_instructions=10)
    outcomes = ParallelRunner().run_outcomes([bad])
    assert not outcomes[0].ok
    assert "ExecutionError" in outcomes[0].error
    # The underlying guard really is the instruction budget.
    with pytest.raises(ExecutionError):
        raise ExecutionError(outcomes[0].error)


# ---------------------------------------------------------------------------
# Task fields reach the simulation.
# ---------------------------------------------------------------------------


def test_sweep_many_forwards_verify(programs, monkeypatch):
    """A task's verify flag reaches ``simulate`` (a batch once dropped
    it silently)."""
    seen = []
    import repro.sim.parallel as parallel_mod
    real_simulate = parallel_mod.simulate

    def recording_simulate(config, program, *, verify=False, **kwargs):
        seen.append(verify)
        return real_simulate(config, program, verify=verify, **kwargs)

    monkeypatch.setattr(parallel_mod, "simulate", recording_simulate)
    tasks = [SimTask(config=sst_machine(small_hierarchy_config(),
                                        dq_size=dq_size),
                     program=programs[0], verify=True)
             for dq_size in (8, 16)]
    results = ParallelRunner().run(tasks)
    assert seen == [True, True]
    assert len(results) == 2


def test_sweep_skip_drops_diverging_point(programs):
    """A config that fails inside the runner fails only its own point;
    ``run`` then names it."""
    def make_config(dq_size):
        machine = sst_machine(small_hierarchy_config(), dq_size=dq_size)
        machine = dataclasses.replace(machine, name=f"sst-dq{dq_size}")
        if dq_size == 8:
            # Sabotage this point so it fails inside the runner, after
            # construction (the frozen-dataclass bypass keeps
            # MachineConfig validation out of the way).
            object.__setattr__(machine, "sst", None)
        return machine

    tasks = [SimTask(config=make_config(dq_size), program=programs[0])
             for dq_size in (4, 8, 16)]
    outcomes = ParallelRunner().run_outcomes(tasks)
    assert [outcome.ok for outcome in outcomes] == [True, False, True]
    assert all(outcomes[index].result.instructions > 0
               for index in (0, 2))

    with pytest.raises(SimTaskError, match="sst-dq8"):
        ParallelRunner().run(tasks)
