"""CLI failure modes exit non-zero with a one-line diagnostic, never a
traceback: a garbage REPRO_BENCH_MAX_INSTRUCTIONS."""

import pytest

from repro import cli


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
