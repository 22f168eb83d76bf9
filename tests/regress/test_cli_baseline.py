"""The ``repro baseline`` CLI: corpus capture/verify exit codes, the
promote-only green path, diff/list output, the CI diff-report
artifact, and the baseline sections of ``repro cache stats|fsck``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.regress.store import BaselineStore

CORPUS = ["e1"]  # one real experiment keeps the CLI tests fast


@pytest.fixture
def dirs(tmp_path, monkeypatch):
    baseline_dir = tmp_path / "baselines"
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_BASELINE_DIR", raising=False)
    return baseline_dir, cache_dir


def corpus(cmd, baseline_dir, *extra):
    return main(["baseline", cmd, *CORPUS, "--smoke",
                 "--baseline-dir", str(baseline_dir), *extra])


def test_verify_red_on_empty_store(dirs, capsys):
    baseline_dir, _ = dirs
    assert corpus("verify", baseline_dir) == 1
    assert "no stored baseline" in capsys.readouterr().err


def test_capture_then_verify_green(dirs, capsys):
    baseline_dir, _ = dirs
    assert corpus("capture", baseline_dir) == 0
    out = capsys.readouterr().out
    assert "captured=" in out
    store = BaselineStore(baseline_dir)
    assert len(store) > 0
    assert all(record.status == "candidate"
               for record in store.records())
    # candidates verify too: capture alone must not leave CI red
    assert corpus("verify", baseline_dir) == 0


def test_doctored_record_red_until_promoted(dirs, capsys):
    baseline_dir, _ = dirs
    assert corpus("capture", baseline_dir) == 0
    assert main(["baseline", "promote", "--all",
                 "--baseline-dir", str(baseline_dir)]) == 0
    store = BaselineStore(baseline_dir)
    assert all(record.status == "approved"
               for record in store.records())
    assert corpus("verify", baseline_dir) == 0

    # doctor one approved cycle count on disk
    record = next(record for record in store.records()
                  if record.kind == "point")
    record.behavior["cycles"] += 1
    record.log("doctor", "seeded mutation")
    store.save(record)
    capsys.readouterr()

    assert corpus("verify", baseline_dir) == 1
    captured = capsys.readouterr()
    assert "DIVERGED" in captured.out
    assert "promote" in captured.err

    # the only green path: capture (parks the candidate) + promote
    assert corpus("capture", baseline_dir) == 0
    assert main(["baseline", "diff",
                 "--baseline-dir", str(baseline_dir)]) == 1
    assert "pending change" in capsys.readouterr().out
    assert main(["baseline", "promote", "--all",
                 "--baseline-dir", str(baseline_dir)]) == 0
    assert corpus("verify", baseline_dir) == 0
    assert main(["baseline", "diff",
                 "--baseline-dir", str(baseline_dir)]) == 0


def test_verify_writes_diff_report_artifact(dirs, tmp_path):
    baseline_dir, _ = dirs
    corpus("capture", baseline_dir)
    report_path = tmp_path / "artifacts" / "baseline-report.json"
    assert corpus("verify", baseline_dir,
                  "--report", str(report_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["mode"] == "verify"
    assert report["stats"]["divergent"] == 0
    assert report["stats"]["verified"] > 0
    assert report["divergences"] == []


def test_list_and_retire(dirs, capsys):
    baseline_dir, _ = dirs
    corpus("capture", baseline_dir)
    store = BaselineStore(baseline_dir)
    assert main(["baseline", "list",
                 "--baseline-dir", str(baseline_dir)]) == 0
    out = capsys.readouterr().out
    assert "candidate" in out
    assert f"{len(store)} record(s)" in out

    semid = store.semids()[0]
    assert main(["baseline", "retire", semid[:12],
                 "--baseline-dir", str(baseline_dir),
                 "--note", "gone"]) == 0
    assert store.get(semid).status == "retired"
    assert main(["baseline", "list", "--status", "retired",
                 "--baseline-dir", str(baseline_dir)]) == 0
    assert "retired" in capsys.readouterr().out


def test_promote_unknown_prefix_fails(dirs, capsys):
    baseline_dir, _ = dirs
    corpus("capture", baseline_dir)
    capsys.readouterr()
    assert main(["baseline", "promote", "ffff" * 16,
                 "--baseline-dir", str(baseline_dir)]) == 2
    assert capsys.readouterr().err == (
        f"error: no baseline record matches {'ffff' * 16!r} "
        f"in {baseline_dir}\n"
    )


def test_cache_stats_reports_baselines(dirs, monkeypatch, capsys):
    baseline_dir, cache_dir = dirs
    monkeypatch.setenv("REPRO_BASELINE_DIR", str(baseline_dir))
    corpus("capture", baseline_dir)
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "baselines:" in out
    assert "candidate=" in out


def test_cache_fsck_cross_checks_baselines(dirs, monkeypatch, capsys):
    baseline_dir, cache_dir = dirs
    monkeypatch.setenv("REPRO_BASELINE_DIR", str(baseline_dir))
    corpus("capture", baseline_dir)
    capsys.readouterr()
    assert main(["cache", "fsck", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "baseline records scanned" in out
    assert "vs cache" in out
    assert "0 MISMATCHED" in out

    # corrupt one point baseline: cross-check must go red
    store = BaselineStore(baseline_dir)
    record = next(record for record in store.records()
                  if record.kind == "point")
    record.behavior["cycles"] += 1
    record.log("doctor")
    store.save(record)
    assert main(["cache", "fsck", "--cache-dir", str(cache_dir)]) == 1
    assert "1 MISMATCHED" in capsys.readouterr().out
