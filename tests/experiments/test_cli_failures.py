"""CLI failure modes exit non-zero with a one-line diagnostic, never a
traceback: an unknown experiment id."""

import pytest

from repro import cli
from repro.experiments import list_specs


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
