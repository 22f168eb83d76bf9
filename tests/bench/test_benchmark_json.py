"""``BENCHMARK.json`` is well formed and agrees with the benchmark code:
name grammar and limits, and every per-layer metric names the
end-to-end metric and workload it should move."""

import json
import pathlib
import re

import pytest

from bench import layers, measure

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def test_top_level_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_and_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_setup_time_has_the_largest_bound():
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = metrics["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics.values())


@pytest.mark.parametrize("metric", SPEC["per_layer"],
                         ids=lambda metric: metric["name"])
def test_layer_metric_names_what_it_moves(metric):
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    moves = layers.MOVES[metric["name"]]
    if metric["name"] in ("other.self_s", "trace.wall_s", "trace.overhead"):
        assert moves == ()
        return
    assert moves
    for e2e, workload in moves:
        assert e2e in end_to_end and workload in workloads


def test_code_produces_exactly_the_declared_layer_metrics():
    report = {"wall_s": 1.0, "other_self_s": 1.0, "layers": {},
              "aggregates": []}
    produced = set(layers.layer_metrics(report, 0, 1.0))
    produced |= set(layers.SimCounts().metrics()) | {"trace.overhead"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}
    assert set(layers.MOVES) == produced


def test_workload_constants_match():
    assert [w["name"] for w in SPEC["workloads"]] == [
        layers.SST, layers.COMPUTE, layers.SMOKE_COLD, layers.FULL_WARM]


def test_sample_summary():
    assert measure.summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                      "n": 1}
    assert measure.summary([4.0, 1.0, 3.0, 2.0])["median"] == 2.5
    ref = measure.REF_PROBE_S
    assert measure.corrected(3.0, ref, ref) == pytest.approx(3.0)
    assert measure.corrected(3.0, ref, 3 * ref) == pytest.approx(1.5)


def test_a_run_takes_at_least_min_samples():
    least = measure.MIN_SAMPLES
    assert least >= 5
    # Below the minimum a run samples on, however long samples take.
    assert measure.another_sample(least - 1, 100.0, 50.0, 20.0)
    # Then only while one more sample as long as the last still fits.
    assert measure.another_sample(least, 12.0, 3.0, 20.0)
    assert not measure.another_sample(least, 18.0, 3.0, 20.0)
