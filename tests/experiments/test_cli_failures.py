"""CLI failure modes exit non-zero with a one-line diagnostic, never a
traceback: a garbage REPRO_JOBS."""

from repro import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_experiments_run_jobs_garbage_env_exits_2(monkeypatch,
                                                  capsys):
    """A non-numeric REPRO_JOBS is a named diagnostic before any
    simulation starts, not a bare ValueError traceback."""
    monkeypatch.setenv("REPRO_JOBS", "many")
    code, _, err = run_cli(
        ["experiments", "run", "e1", "--smoke"], capsys)
    assert code == 2
    assert "REPRO_JOBS" in err
    assert "Traceback" not in err
