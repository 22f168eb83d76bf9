"""Cycle-count bit-identity against pre-optimization golden results.

``golden_cycles.json`` pins the exact cycles, retired instruction
counts, architectural register state (order-weighted checksum) and —
for the SST family — the per-mode cycle breakdown and episode count of
every core model on three tiny workloads, captured at the commit
*before* the event-driven fast-forwarding / memory fast-path rework
landed.  The optimizations are pure simulator-speed work: any drift in
these numbers is a timing-model regression, not tuning.

A multicore golden pins the quantum-interleaved scheduler the same way
(the quantum-skip fast-forward must not move a single access).

The same scenarios also ride the behavioral baseline firewall
(:mod:`repro.regress`): every golden run is captured into a baseline
store and re-verified — so the legacy JSON assertions and the firewall
must agree with each other, and a doctored baseline record must turn
verification red.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cmp.multicore import Multicore
from repro.config import (
    DEFAULT_MAX_INSTRUCTIONS,
    HierarchyConfig,
    SSTConfig,
    ea_machine,
    inorder_machine,
    ooo_machine,
    scout_machine,
    sst_machine,
)
from repro.regress.firewall import BaselineFirewall, multicore_key
from repro.regress.store import BaselineStore
from repro.sim.cache import result_key
from repro.sim.machine import Machine
from repro.sim.parallel import SimTask
from repro.workloads import full_suite

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_cycles.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

MACHINES = {
    "inorder": inorder_machine,
    "ooo": ooo_machine,
    "sst": sst_machine,
    "ea": ea_machine,
    "scout": scout_machine,
}

MULTICORE_PROGRAMS = ("oltp-chase", "int-branchy", "compute-matmul",
                      "fp-stream")


@pytest.fixture(scope="module")
def tiny_suite():
    return {program.name: program for program in full_suite("tiny")}


@pytest.fixture(scope="module")
def core_runs(tiny_suite):
    """(config, program, result) per golden key — simulated once for
    both the legacy JSON assertions and the firewall round-trip."""
    runs = {}
    for key in GOLDEN["cores"]:
        machine_name, workload = key.split("/")
        config = MACHINES[machine_name]()
        program = tiny_suite[workload]
        runs[key] = (config, program, Machine(config).run(program))
    return runs


@pytest.fixture(scope="module")
def multicore_run(tiny_suite):
    multicore = Multicore(
        HierarchyConfig(), [SSTConfig()] * len(MULTICORE_PROGRAMS),
        [tiny_suite[name] for name in MULTICORE_PROGRAMS],
    )
    return multicore, multicore.run()


def _reg_crc(result) -> int:
    """Order-weighted checksum of the final architectural registers."""
    return sum(value * (index + 1)
               for index, value in enumerate(result.state.regs)
               ) & 0xFFFFFFFFFFFFFFFF


def _observed(result) -> dict:
    entry = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "reg_crc": _reg_crc(result),
    }
    sst_stats = result.extra.get("sst")
    if sst_stats is not None:
        entry["mode_cycles"] = dict(sst_stats.mode_cycles)
        entry["episodes"] = sst_stats.episodes
    return entry


@pytest.mark.parametrize("key", sorted(GOLDEN["cores"]))
def test_core_golden(key, core_runs):
    _, _, result = core_runs[key]
    assert _observed(result) == GOLDEN["cores"][key]


def test_multicore_golden(multicore_run):
    _, result = multicore_run
    observed = {
        "makespan": result.makespan,
        "aggregate_ipc": round(result.aggregate_ipc, 12),
        "per_core": [
            {"name": core.core_name, "cycles": core.cycles,
             "instructions": core.instructions}
            for core in result.per_core
        ],
    }
    assert observed == GOLDEN["multicore"]


# ---------------------------------------------------------------------------
# The same scenarios through the baseline firewall.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory, core_runs, multicore_run):
    """Every golden scenario captured into a baseline store."""
    store = BaselineStore(tmp_path_factory.mktemp("golden-baselines"))
    firewall = BaselineFirewall(store, mode="capture")
    for config, program, result in core_runs.values():
        action = firewall.observe_point(
            SimTask(config, program, DEFAULT_MAX_INSTRUCTIONS), result)
        assert action == "captured"
    multicore, result = multicore_run
    assert firewall.observe_multicore(
        multicore, result, machine="multicore", program="mix4",
        max_instructions=DEFAULT_MAX_INSTRUCTIONS,
    ) == "captured"
    return store


def test_firewall_verifies_golden_runs(golden_store, core_runs,
                                       multicore_run):
    firewall = BaselineFirewall(golden_store, mode="verify")
    for config, program, result in core_runs.values():
        assert firewall.observe_point(
            SimTask(config, program, DEFAULT_MAX_INSTRUCTIONS), result
        ) == "verified"
    multicore, result = multicore_run
    assert firewall.observe_multicore(
        multicore, result, machine="multicore", program="mix4",
        max_instructions=DEFAULT_MAX_INSTRUCTIONS,
    ) == "verified"
    assert firewall.stats.divergent == 0
    assert firewall.stats.verified == len(core_runs) + 1


def test_firewall_records_match_golden_json(golden_store, core_runs):
    """The baseline records and the legacy JSON pin the same numbers:
    the two regression nets cannot drift apart silently."""
    for key, (config, program, _) in core_runs.items():
        record = golden_store.load(
            result_key(config, program, DEFAULT_MAX_INSTRUCTIONS))
        assert record.behavior["cycles"] == GOLDEN["cores"][key]["cycles"]
        assert (record.behavior["instructions"]
                == GOLDEN["cores"][key]["instructions"])


def test_firewall_multicore_record_matches_golden(golden_store,
                                                  multicore_run):
    multicore, _ = multicore_run
    record = golden_store.load(
        multicore_key(multicore, DEFAULT_MAX_INSTRUCTIONS))
    golden = GOLDEN["multicore"]
    assert record.behavior["makespan"] == golden["makespan"]
    assert record.behavior["aggregate_ipc"] == golden["aggregate_ipc"]
    assert [
        (core["core"], core["cycles"], core["instructions"])
        for core in record.behavior["per_core"]
    ] == [
        (core["name"], core["cycles"], core["instructions"])
        for core in golden["per_core"]
    ]


def test_firewall_catches_doctored_golden(tmp_path, core_runs):
    """A doctored cycle count in a record turns verification red."""
    config, program, result = next(iter(core_runs.values()))
    store = BaselineStore(tmp_path / "baselines")
    capture = BaselineFirewall(store, mode="capture")
    task = SimTask(config, program, DEFAULT_MAX_INSTRUCTIONS)
    semid = result_key(config, program, DEFAULT_MAX_INSTRUCTIONS)
    capture.observe_point(task, result)

    record = store.load(semid)
    record.behavior["cycles"] += 1
    store.capture(record)

    verify = BaselineFirewall(store, mode="verify")
    assert verify.observe_point(task, result) == "divergent"
    [divergence] = verify.divergences
    assert divergence.semid == semid
    assert "cycles" in divergence.fields
