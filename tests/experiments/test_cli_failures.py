"""CLI failure modes exit non-zero with a one-line diagnostic, never a
traceback: a missing perf baseline and a garbage REPRO_JOBS."""

from repro import cli
from repro.experiments import perf


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_perf_report_missing_baseline_exits_2(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setenv("REPRO_PERF_BASELINE",
                       str(tmp_path / "absent.json"))
    monkeypatch.setattr(
        perf, "measure",
        lambda tag="probe": {
            "schema": perf.REPORT_SCHEMA, "tag": tag, "entries": [],
            "aggregate": perf.aggregate([]),
        },
    )
    code, _, err = run_cli(
        ["perf", "report", "--out", str(tmp_path / "out.json"),
         "--compare-baseline"], capsys)
    assert code == 2
    assert "no committed baseline" in err
    assert "Traceback" not in err


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
