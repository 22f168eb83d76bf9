"""The experiment engine, result documents, and the ``repro`` CLI:
run -> JSON document round-trip, expectation auditing of doctored
results, and schema validation."""

import copy
import json

import pytest

from repro import cli
from repro.experiments import (
    ExperimentEngine,
    ResultSchemaError,
    get,
    load_result_doc,
    run_experiment,
    validate_result_doc,
)


@pytest.fixture(scope="module")
def e4_doc(tmp_path_factory):
    """One real smoke run of e4, shared by the document tests."""
    results_dir = tmp_path_factory.mktemp("results")
    doc = run_experiment("e4", smoke=True, cache=None, write=True,
                         results_dir=results_dir)
    return doc, results_dir


# ---------------------------------------------------------------------------
# CLI round-trip.
# ---------------------------------------------------------------------------


def test_cli_run_round_trips_a_valid_document(tmp_path, capsys):
    code = cli.main(["experiments", "run", "e4", "--smoke", "--no-cache",
                     "--results-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "e4_dq_size" in out

    doc = load_result_doc("e4_dq_size", tmp_path)  # validates on load
    assert doc["experiment"]["id"] == "e4"
    assert doc["mode"] == "smoke"
    assert doc["points"], "no simulation points recorded"
    # The text table next to the document is exactly the rendered table.
    txt = (tmp_path / "e4_dq_size.txt").read_text()
    assert txt == doc["table"]["rendered"] + "\n"
    # Every recorded single-core point carries its cache fingerprint.
    assert all(point["key"] for point in doc["points"])


def test_cli_list_shows_all_experiments(capsys):
    assert cli.main(["experiments", "list", "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert len(listing) == 19
    assert listing[0]["id"] == "e1"


def test_cli_report_reads_stored_documents(e4_doc, capsys):
    _, results_dir = e4_doc
    code = cli.main(["experiments", "report", "e4",
                     "--results-dir", str(results_dir)])
    assert code == 0
    assert "e4_dq_size" in capsys.readouterr().out


def test_cli_rejects_unknown_experiment(tmp_path, capsys):
    code = cli.main(["experiments", "run", "e999",
                     "--results-dir", str(tmp_path)])
    assert code == 2
    assert "e999" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Engine output.
# ---------------------------------------------------------------------------


def test_engine_document_is_schema_valid(e4_doc):
    doc, _ = e4_doc
    validate_result_doc(doc)
    assert doc["schema"] == 1
    assert doc["experiment"]["name"] == "e4_dq_size"
    assert doc["table"]["rows"]
    assert doc["metrics"] == json.loads(json.dumps(doc["metrics"]))


def test_engine_expectations_match_spec(e4_doc):
    doc, _ = e4_doc
    spec = get("e4")
    assert [outcome["name"] for outcome in doc["expectations"]] == [
        expectation.name for expectation in spec.expectations
    ]
    assert doc["ok"] == all(
        outcome["passed"] for outcome in doc["expectations"]
    )


def test_engine_write_false_writes_nothing(tmp_path):
    engine = ExperimentEngine(smoke=True, cache=None, write=False,
                              results_dir=tmp_path)
    doc = engine.run("e4")
    assert doc["points"]
    assert list(tmp_path.iterdir()) == []


def test_expectations_fire_on_a_doctored_result(e4_doc):
    """Audit trail: re-checking a tampered document catches the tamper."""
    doc, _ = e4_doc
    spec = get("e4")
    honest = spec.check(doc["metrics"])
    assert all(outcome.passed for outcome in honest)

    doctored = copy.deepcopy(doc["metrics"])
    # e4's deep-DQ expectation: claim the largest DQ is slower.
    doctored["speedups"][-1] = 0.01
    outcomes = spec.check(doctored)
    assert not all(outcome.passed for outcome in outcomes)

    gutted = spec.check({})
    assert not any(outcome.passed for outcome in gutted)
    assert all(outcome.error for outcome in gutted)


# ---------------------------------------------------------------------------
# Validation rejects malformed documents.
# ---------------------------------------------------------------------------


def _valid_doc(e4_doc):
    doc, _ = e4_doc
    return copy.deepcopy(doc)


def test_validator_rejects_missing_field(e4_doc):
    doc = _valid_doc(e4_doc)
    del doc["metrics"]
    with pytest.raises(ResultSchemaError, match="metrics"):
        validate_result_doc(doc)


def test_validator_rejects_wrong_schema_version(e4_doc):
    doc = _valid_doc(e4_doc)
    doc["schema"] = 999
    with pytest.raises(ResultSchemaError, match="schema"):
        validate_result_doc(doc)


def test_validator_rejects_bad_mode(e4_doc):
    doc = _valid_doc(e4_doc)
    doc["mode"] = "warp"
    with pytest.raises(ResultSchemaError, match="mode"):
        validate_result_doc(doc)


def test_validator_rejects_malformed_point(e4_doc):
    doc = _valid_doc(e4_doc)
    del doc["points"][0]["cycles"]
    with pytest.raises(ResultSchemaError, match="points"):
        validate_result_doc(doc)


def test_load_rejects_missing_and_corrupt_files(tmp_path):
    with pytest.raises(ResultSchemaError, match="no result document"):
        load_result_doc("e4_dq_size", tmp_path)
    (tmp_path / "e4_dq_size.json").write_text("{not json")
    with pytest.raises(ResultSchemaError, match="not JSON"):
        load_result_doc("e4_dq_size", tmp_path)
