"""The ``repro lint`` and ``repro fuzz`` subcommands."""

import json

import pytest

from repro.cli import main
from repro.workloads.fuzz import HAVE_HYPOTHESIS, FuzzFailure, build_program


# ----------------------------------------------------------------------
# repro lint
# ----------------------------------------------------------------------


def test_lint_clean_workload_exits_zero(capsys):
    assert main(["lint", "int-branchy"]) == 0
    assert "int-branchy: clean" in capsys.readouterr().out


def test_lint_flags_the_gadget_workload(capsys):
    assert main(["lint", "spec-leak-gadget"]) == 1
    out = capsys.readouterr().out
    assert "1 finding(s)" in out
    assert "spec_leak_gadget" in out


def test_lint_all_covers_suite_and_analysis_registries(capsys):
    code = main(["lint", "--all", "--json"])
    report = json.loads(capsys.readouterr().out)
    names = {doc["program"] for doc in report["programs"]}
    assert "compute-matmul" in names and "spec-leak-gadget" in names
    # The two seeded gadget variants are the only findings.
    assert report["findings"] == 2
    assert code == 1


def test_lint_json_reports_structured_diagnostics(capsys):
    assert main(["lint", "spec-leak-store", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    [doc] = report["programs"]
    assert doc["has_secrets"]
    [diag] = doc["diagnostics"]
    assert diag["kind"] == "spec_leak_gadget"
    assert isinstance(diag["pc"], int)


def test_lint_unknown_name_is_an_error():
    with pytest.raises(SystemExit):
        main(["lint", "no-such-workload"])


def test_lint_without_targets_is_an_error():
    with pytest.raises(SystemExit):
        main(["lint"])


# ----------------------------------------------------------------------
# repro fuzz
# ----------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
def test_fuzz_clean_run_exits_zero(capsys):
    assert main(["fuzz", "--max-examples", "3"]) == 0
    assert "no divergence" in capsys.readouterr().out


def test_fuzz_divergence_writes_artifact_and_fails(tmp_path, capsys,
                                                   monkeypatch):
    shape = ([0] * 8, [0] * 64, 1, [("nop",)] * 4)
    failure = FuzzFailure(shape=shape, program=build_program(shape),
                          detail="sst: register state diverged")

    import repro.workloads.fuzz as fuzz_module

    monkeypatch.setattr(fuzz_module, "HAVE_HYPOTHESIS", True)
    monkeypatch.setattr(fuzz_module, "fuzz",
                        lambda max_examples: failure)
    out = tmp_path / "counterexample.json"
    assert main(["fuzz", "--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert "DIVERGENCE" in text and "shrunk" in text
    artifact = json.loads(out.read_text())
    assert artifact["detail"] == "sst: register state diverged"
    assert artifact["listing"]
