"""The CLI's one parallel path: ``--jobs N`` runs N whole experiments
at once in ``experiments run`` and ``baseline verify`` with the same
output as one at a time, and neither command leaves anything behind in
the caller's environment."""

import json
import os

from repro import cli
from repro.regress.store import BaselineStore
from tests.conftest import stored_records

CORPUS = "e4,e8"


def without_wall_seconds(value):
    """``value`` with every host-time ``wall_seconds`` field dropped."""
    if isinstance(value, dict):
        return {key: without_wall_seconds(item)
                for key, item in value.items() if key != "wall_seconds"}
    if isinstance(value, list):
        return [without_wall_seconds(item) for item in value]
    return value


def run_documents(results_dir, jobs):
    assert cli.main(["experiments", "run", CORPUS, "--smoke", "--no-cache",
                     "--jobs", str(jobs),
                     "--results-dir", str(results_dir)]) == 0
    return {path.name: without_wall_seconds(json.loads(path.read_text()))
            for path in sorted(results_dir.glob("*.json"))}


def verify_report(baseline_dir, report, jobs):
    code = cli.main(["baseline", "verify", CORPUS, "--smoke",
                     "--baseline-dir", str(baseline_dir),
                     "--jobs", str(jobs), "--report", str(report)])
    return code, json.loads(report.read_text())


def test_jobs_2_matches_jobs_1(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    serial = run_documents(tmp_path / "serial", 1)
    assert sorted(serial) == ["e4_dq_size.json", "e8_sb_size.json"]
    assert run_documents(tmp_path / "parallel", 2) == serial

    baseline_dir = tmp_path / "baselines"
    assert cli.main(["baseline", "capture", CORPUS, "--smoke",
                     "--baseline-dir", str(baseline_dir)]) == 0
    store = BaselineStore(baseline_dir)
    record = next(record for record in stored_records(baseline_dir)
                  if record.kind == "point")
    record.behavior["cycles"] += 1
    store.capture(record)

    code, one = verify_report(baseline_dir, tmp_path / "one.json", 1)
    assert code == 1
    assert one["stats"]["divergent"] == 1
    assert [d["semid"] for d in one["divergences"]] == [record.semid]
    assert verify_report(baseline_dir, tmp_path / "two.json", 2) \
        == (1, one)


def test_cli_leaves_the_environment_as_found(tmp_path, monkeypatch):
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    before = dict(os.environ)

    assert cli.main(["experiments", "run", "e4", "--smoke", "--no-cache",
                     "--max-instructions", "2000000",
                     "--results-dir", str(tmp_path / "results")]) == 0
    assert dict(os.environ) == before
    assert cli.main(["experiments", "run", "e4", "--sanitize",
                     "--results-dir", str(tmp_path / "results")]) == 0
    assert dict(os.environ) == before
    assert cli.main(["baseline", "verify", "e4", "--smoke"]) == 0
    assert dict(os.environ) == before
