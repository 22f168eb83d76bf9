"""The baseline firewall engine: observation kinds, capture/verify
modes, reporting, the BenchEnv/engine hook points, and bit-identity of
behavior across execution variants (sanitizer attached, taint tracking
on)."""

from __future__ import annotations

import pytest

from repro.baselines.core_base import DEFAULT_MAX_INSTRUCTIONS
from repro.config import sst_machine
from repro.experiments.bench_env import BenchEnv
from repro.experiments.engine import ExperimentEngine
from repro.regress.firewall import BaselineFirewall, point_behavior
from repro.regress.store import BaselineStore
from repro.sim.cache import result_key
from repro.sim.parallel import SimTask
from repro.sim.runner import simulate
from repro.workloads import full_suite


@pytest.fixture
def store(tmp_path):
    return BaselineStore(tmp_path / "baselines")


@pytest.fixture(scope="module")
def tiny_suite():
    return {program.name: program for program in full_suite("tiny")}


def run_point(program, **kwargs):
    return simulate(sst_machine(), program, **kwargs)


def task_of(program):
    return SimTask(sst_machine(), program, DEFAULT_MAX_INSTRUCTIONS)


# -- observing one point ----------------------------------------------------


def test_observe_point_captures_and_verifies(store, tiny_suite):
    program = tiny_suite["oltp-chase"]
    result = run_point(program)

    def observe(mode):
        return BaselineFirewall(store, mode=mode).observe_point(
            task_of(program), result)

    assert observe("capture") == "captured"
    assert len(store) == 1
    [record] = store.records()
    assert record.kind == "point"
    assert record.semid == result_key(sst_machine(), program,
                                      DEFAULT_MAX_INSTRUCTIONS)

    assert observe("verify") == "verified"
    assert observe("capture") == "unchanged"

    record.behavior["instructions"] -= 1
    store.capture(record)
    assert observe("verify") == "divergent"
    assert observe("capture") == "updated"
    assert observe("verify") == "verified"


def test_simulate_hook_off_touches_nothing(monkeypatch, tmp_path,
                                           tiny_suite):
    monkeypatch.setattr("repro.regress.store.default_baseline_dir",
                        lambda: tmp_path / "bl")
    run_point(tiny_suite["oltp-chase"])
    assert not (tmp_path / "bl").exists()


# -- verify semantics -------------------------------------------------------


def test_verify_unseen_is_ignored(store, tiny_suite):
    firewall = BaselineFirewall(store, mode="verify")
    result = run_point(tiny_suite["oltp-chase"])
    assert firewall.observe_point(
        task_of(tiny_suite["oltp-chase"]), result) == "unseen"
    assert firewall.stats.unseen == 1
    assert not firewall.divergences


def test_nonstrict_verify_collects_instead_of_raising(store, tiny_suite):
    program = tiny_suite["oltp-chase"]
    result = run_point(program)
    capture = BaselineFirewall(store, mode="capture")
    capture.observe_point(task_of(program), result)
    semid = result_key(sst_machine(), program, DEFAULT_MAX_INSTRUCTIONS)
    record = store.load(semid)
    record.behavior["cycles"] += 5
    store.capture(record)

    firewall = BaselineFirewall(store, mode="verify")
    assert firewall.observe_point(task_of(program), result) == "divergent"
    report = firewall.report()
    assert report["stats"]["divergent"] == 1
    [divergence] = report["divergences"]
    assert divergence["semid"] == semid
    assert "cycles" in divergence["fields"]


# -- bit-identity across execution variants ---------------------------------


def test_behavior_identical_with_sanitizer_on(store, monkeypatch,
                                              tiny_suite):
    """The sanitizer is observational: behavior captured on the plain
    generated SST loop verifies on the instrumented one it selects."""
    program = tiny_suite["oltp-chase"]
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    captured = run_point(program)
    capture = BaselineFirewall(store, mode="capture")
    capture.observe_point(task_of(program), captured)

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run_point(program)
    verify = BaselineFirewall(store, mode="verify")
    assert verify.observe_point(task_of(program), sanitized) == "verified"


def test_behavior_identical_with_taint_tracking_on(store, monkeypatch,
                                                   tiny_suite):
    """Taint tracking is observational: its extra payload never enters
    the behavior record, and it perturbs no governed field."""
    program = tiny_suite["oltp-chase"]
    monkeypatch.delenv("REPRO_TAINT", raising=False)
    baseline = run_point(program)
    capture = BaselineFirewall(store, mode="capture")
    capture.observe_point(task_of(program), baseline)

    monkeypatch.setenv("REPRO_TAINT", "1")
    tainted = run_point(program)
    verify = BaselineFirewall(store, mode="verify")
    assert verify.observe_point(task_of(program), tainted) == "verified"


# -- BenchEnv / engine integration ------------------------------------------


def test_bench_env_observes_points_including_cache_hits(tmp_path,
                                                        tiny_suite):
    program = tiny_suite["oltp-chase"]
    from repro.sim.cache import ResultCache

    cache = ResultCache(tmp_path / "cache")
    store = BaselineStore(tmp_path / "bl")

    capture = BaselineFirewall(store, mode="capture")
    env = BenchEnv(smoke=True, cache=cache, firewall=capture)
    env.run(sst_machine(), program)
    assert capture.stats.captured == 1

    # second environment: the point restores from cache, and the
    # firewall still sees (and verifies) it
    verify = BaselineFirewall(store, mode="verify")
    env = BenchEnv(smoke=True, cache=cache, firewall=verify)
    env.run(sst_machine(), program)
    assert verify.stats.verified == 1


def test_engine_observes_experiment_document(tmp_path):
    store = BaselineStore(tmp_path / "bl")
    capture = BaselineFirewall(store, mode="capture")
    engine = ExperimentEngine(smoke=True, cache=None, write=False,
                              firewall=capture)
    engine.run("e1")
    kinds = {record.kind for record in store.records()}
    assert "experiment" in kinds
    assert "point" in kinds
    [experiment] = [record for record in store.records()
                    if record.kind == "experiment"]
    assert experiment.scenario["experiment"] == "e1_speedup_over_inorder"
    behavior = experiment.behavior
    assert set(behavior) >= {"points_signature", "n_points",
                             "expectations", "ok", "metrics_signature",
                             "table_signature"}

    # re-run: everything verifies, including the experiment document
    verify = BaselineFirewall(store, mode="verify")
    engine = ExperimentEngine(smoke=True, cache=None, write=False,
                              firewall=verify)
    engine.run("e1")
    assert verify.stats.divergent == 0
    assert verify.stats.verified == len(store)


def test_experiment_points_signature_pins_cache_keys(tmp_path):
    """An unintended cache-key change turns experiment verification
    red even when every cycle count matches."""
    store = BaselineStore(tmp_path / "bl")
    capture = BaselineFirewall(store, mode="capture")
    ExperimentEngine(smoke=True, cache=None, write=False,
                     firewall=capture).run("e1")
    [experiment] = [record for record in store.records()
                    if record.kind == "experiment"]
    # simulate a silent re-keying: the stored signature no longer
    # matches what a fresh run computes
    experiment.behavior["points_signature"] = "0" * 64
    store.capture(experiment)

    verify = BaselineFirewall(store, mode="verify")
    ExperimentEngine(smoke=True, cache=None, write=False,
                     firewall=verify).run("e1")
    assert verify.stats.divergent == 1
    [divergence] = verify.divergences
    assert divergence.kind == "experiment"
    assert "points_signature" in divergence.fields


# -- behavior surface -------------------------------------------------------


def test_point_behavior_excludes_wall_clock(tiny_suite):
    result = run_point(tiny_suite["oltp-chase"])
    behavior = point_behavior(result)
    assert set(behavior) == {"cycles", "instructions", "state_hash",
                             "perf_signature", "sst_signature"}
    assert "wall" not in str(sorted(behavior))
