"""CLI failure modes exit non-zero with a one-line diagnostic, never a
traceback: a garbage REPRO_BENCH_MAX_INSTRUCTIONS, an unknown
experiment id."""

import pytest

from repro import cli
from repro.experiments import list_specs


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["experiments", "run", "e1", "--smoke"],
    ["baseline", "verify", "e1", "--smoke"],
], ids=["experiments-run", "baseline-verify"])
def test_budget_garbage_env_exits_2(monkeypatch, capsys, argv):
    """A non-numeric instruction budget is one named diagnostic before
    any experiment starts, not a ConfigError traceback per experiment."""
    monkeypatch.setenv("REPRO_BENCH_MAX_INSTRUCTIONS", "many")
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err == ("error: REPRO_BENCH_MAX_INSTRUCTIONS must be an "
                   "integer, got 'many'\n")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["experiments", "run", "e99", "--smoke"],
    ["experiments", "report", "e99"],
    ["baseline", "verify", "e99", "--smoke"],
], ids=["experiments-run", "experiments-report", "baseline-verify"])
def test_unknown_experiment_exits_2_unquoted(capsys, argv):
    """The lookup error prints as its plain message, not inside the
    quotes ``KeyError.__str__`` would add."""
    known = ", ".join(spec.eid for spec in list_specs())
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err == f"error: no experiment 'e99' (known: {known})\n"
    assert out == ""
