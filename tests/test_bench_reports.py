"""Committed benchmark reports.  A root-level ``BENCH_*.json`` is the
evidence for a speed claim, so it must parse, name only what
``BENCHMARK.json`` defines and hold enough runs to decide its claim."""

import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in SPEC["workloads"]}
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}
SIDES = ("parent", "change")
# Alternating parent/change pairs a claim needs (ROADMAP's north star).
MIN_CLAIM_RUNS = 10


@pytest.mark.parametrize("path", sorted(REPO.glob("BENCH_*.json")),
                         ids=lambda path: path.name)
def test_bench_report(path):
    doc = json.loads(path.read_text())
    claim = doc["claim"]
    assert claim["workload"] in WORKLOADS
    assert claim["metric"] in END_TO_END

    claim_runs = dict.fromkeys(SIDES, 0)
    for run in doc["runs"]:
        assert run["side"] in SIDES
        for report in run["report"]["reports"]:
            assert report["workload"] in WORKLOADS
            assert set(report["metrics"]) <= END_TO_END
            if report["workload"] == claim["workload"]:
                claim_runs[run["side"]] += 1
    assert min(claim_runs.values()) >= MIN_CLAIM_RUNS, claim_runs

    for workload, metrics in doc["summary"].items():
        assert workload in WORKLOADS
        assert set(metrics) <= END_TO_END
    for traced in doc.get("traced", []):
        assert traced["side"] in SIDES
        assert traced["workload"] in WORKLOADS
        assert set(traced["metrics"]) <= PER_LAYER
