"""The ``repro baseline`` CLI: corpus capture/verify exit codes, the
recapture green path, unreadable records, the CI diff-report artifact,
and a warm verify's check of the result cache against the records."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.cli import main
from repro.regress.semid import dump_stable
from repro.regress.store import BaselineStore
from tests.conftest import json_files, stored_records

CORPUS = ["e1"]  # one real experiment keeps the CLI tests fast


@pytest.fixture
def dirs(tmp_path, monkeypatch):
    baseline_dir = tmp_path / "baselines"
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
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
    assert "UPDATED" not in out
    assert json_files(baseline_dir)
    assert corpus("verify", baseline_dir) == 0


def doctor_point_record(baseline_dir):
    """Hand-edit one point record's cycle count; returns its semid."""
    semid = next(record.semid for record in stored_records(baseline_dir)
                 if record.kind == "point")
    path = baseline_dir / f"{semid}.json"
    doc = json.loads(path.read_text())
    doc["behavior"]["cycles"] += 1
    path.write_text(dump_stable(doc))
    return semid


def test_verify_counts_divergences_by_field(dirs, tmp_path, capsys):
    """The ``FAIL`` line counts divergent observations per behaviour
    field, most first: the scope of a recapture on one line."""
    baseline_dir, _ = dirs
    assert corpus("capture", baseline_dir) == 0
    first, second = [record for record in stored_records(baseline_dir)
                     if record.kind == "point"][:2]
    for record, fields in ((first, ("cycles", "state_hash")),
                           (second, ("state_hash",))):
        path = baseline_dir / f"{record.semid}.json"
        doc = json.loads(path.read_text())
        for field in fields:
            doc["behavior"][field] = 0
        path.write_text(dump_stable(doc))
    capsys.readouterr()

    report_path = tmp_path / "report.json"
    assert corpus("verify", baseline_dir,
                  "--report", str(report_path)) == 1
    err = capsys.readouterr().err
    observed = [divergence["semid"] for divergence
                in json.loads(report_path.read_text())["divergences"]]
    both = observed.count(first.semid) + observed.count(second.semid)
    assert both == len(observed) >= 2
    assert (f"FAIL: {both} divergence(s) from stored baselines "
            f"(state_hash {both}, cycles {observed.count(first.semid)})"
            in err)


def test_doctored_record_red_until_recaptured(dirs, capsys):
    baseline_dir, _ = dirs
    assert corpus("capture", baseline_dir) == 0
    assert corpus("verify", baseline_dir) == 0
    doctored = doctor_point_record(baseline_dir)
    capsys.readouterr()

    assert corpus("verify", baseline_dir) == 1
    captured = capsys.readouterr()
    assert "DIVERGED" in captured.out
    assert "repro baseline capture" in captured.err

    # the green path: capture rewrites the record and says so
    assert corpus("capture", baseline_dir) == 0
    out = capsys.readouterr().out
    assert "updated=1" in out
    [updated] = [line for line in out.splitlines() if "UPDATED" in line]
    assert doctored[:12] in updated
    assert "cycles" in updated
    assert corpus("verify", baseline_dir) == 0


def test_recapture_restores_fresh_capture_bytes(dirs, tmp_path, capsys):
    """Records are a pure function of the code: recapturing over a
    doctored store writes exactly what a capture into an empty
    directory writes, down to the layout of the file."""
    baseline_dir, _ = dirs
    fresh_dir = tmp_path / "fresh"
    assert corpus("capture", fresh_dir) == 0
    shutil.copytree(fresh_dir, baseline_dir)
    doctored = doctor_point_record(baseline_dir)
    # the same record, re-serialized without indentation
    reflowed = next(path for path in sorted(baseline_dir.iterdir())
                    if path.stem != doctored)
    reflowed.write_text(json.dumps(json.loads(reflowed.read_text())))
    capsys.readouterr()
    assert corpus("capture", baseline_dir) == 0
    out = capsys.readouterr().out
    assert "updated=2" in out
    assert f"[{reflowed.stem[:12]}]" in out
    assert "another layout" in out

    def files(root):
        return {path.name: path.read_bytes()
                for path in sorted(root.iterdir())}

    assert files(baseline_dir) == files(fresh_dir)
    assert f"{doctored}.json" in files(baseline_dir)


@pytest.mark.parametrize("damage", ["not-json", "copied-record"])
def test_unreadable_record_is_one_divergence(dirs, tmp_path, capsys,
                                             damage):
    baseline_dir, _ = dirs
    assert corpus("capture", baseline_dir) == 0
    clean_report = tmp_path / "clean.json"
    assert corpus("verify", baseline_dir,
                  "--report", str(clean_report)) == 0
    clean = json.loads(clean_report.read_text())["stats"]

    store = BaselineStore(baseline_dir)
    victim, other = [path.stem for path in json_files(baseline_dir)][:2]
    path = baseline_dir / f"{victim}.json"
    if damage == "not-json":
        path.write_text("{ not json")
    else:
        shutil.copyfile(baseline_dir / f"{other}.json", path)
    capsys.readouterr()

    report_path = tmp_path / "damaged.json"
    assert corpus("verify", baseline_dir,
                  "--report", str(report_path)) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "FAIL  " not in captured.err
    stats = json.loads(report_path.read_text())["stats"]
    assert sum(stats.values()) == sum(clean.values())
    assert stats["divergent"] >= 1
    assert stats["divergent"] + stats["verified"] == clean["verified"]
    assert f"(unreadable {stats['divergent']})" in captured.err
    diverged = [line for line in captured.out.splitlines()
                if "DIVERGED" in line]
    assert diverged and all(str(path) in line for line in diverged)

    # capture rewrites the damaged file, and verify is green again
    assert corpus("capture", baseline_dir) == 0
    assert "UPDATED" in capsys.readouterr().out
    assert store.load(victim) is not None
    assert corpus("verify", baseline_dir) == 0


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


@pytest.mark.parametrize("doctor", ["point", "multicore"])
def test_warm_verify_reports_a_doctored_cache_entry(dirs, monkeypatch,
                                                    capsys, doctor):
    """A warm verify compares every cached point and multicore run with
    its record: one doctored cache entry is a divergence that names the
    record the entry is addressed by."""
    baseline_dir, cache_dir = dirs
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    e18 = ["e18", "--smoke", "--baseline-dir", str(baseline_dir)]
    # The capture primes the cache with e18's point and multicore runs.
    assert main(["baseline", "capture", *e18]) == 0
    assert main(["baseline", "verify", *e18]) == 0
    semid = next(record.semid
                 for record in stored_records(baseline_dir)
                 if record.kind == doctor)
    path = cache_dir / f"{semid}.json"
    entry = json.loads(path.read_text())
    fields = entry["result"]["fields"]
    if doctor == "point":
        fields["cycles"] += 1
    else:
        state = fields["per_core"][0]["fields"]["state"]["__state__"]
        state["digest"] = "0" * 64
    path.write_text(json.dumps(entry))
    capsys.readouterr()

    assert main(["baseline", "verify", *e18]) == 1
    diverged = [line for line in capsys.readouterr().out.splitlines()
                if "DIVERGED" in line]
    assert any(f"[{semid[:12]}] {doctor} " in line for line in diverged)
