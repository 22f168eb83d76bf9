"""``benchmarks/rekey_pairs.py``: a recaptured corpus passes only when
keys, and nothing else, moved."""

import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO / "benchmarks" / "rekey_pairs.py"

# (record kind, machine, program, cycles) of each document point.
POINTS = [("point", "sst-2w", "db-hashjoin", 4639),
          ("multicore", "sst-cmp2", "db-hashjoin x2", 1188)]


def write(path, payload):
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def side(root, keys, *, points_signature):
    """One side's documents and records: one document whose points have
    ``keys``, a record per point, and the experiment's record."""
    docs, records = root / "docs", root / "records"
    docs.mkdir(parents=True)
    records.mkdir()
    points = []
    for key, (kind, machine, program, cycles) in zip(keys, POINTS):
        points.append({"key": key, "machine": machine, "program": program,
                       "cycles": cycles, "wall_seconds": 0.25})
        write(records / f"{key}.json", {
            "schema": 2, "sim_schema": 2, "semid": key, "kind": kind,
            "scenario": {"machine": machine, "program": program},
            "behavior": {"cycles": cycles}})
    write(docs / "e1_demo.json", {
        "experiment": {"id": "e1"}, "ok": True, "points": points,
        "wall_seconds": 1.5})
    write(records / "e1semid.json", {
        "schema": 2, "sim_schema": 2, "semid": "e1semid",
        "kind": "experiment", "scenario": {"experiment": "e1_demo"},
        "behavior": {"ok": True, "points_signature": points_signature}})
    return docs, records


def run_script(old, new):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(old[0]), str(new[0]),
         str(old[1]), str(new[1])],
        capture_output=True, text=True)


@pytest.fixture
def old(tmp_path):
    return side(tmp_path / "old", ["old-a", "old-b"],
                points_signature="sig-old")


def test_consistently_renamed_keys_pass(tmp_path, old):
    new = side(tmp_path / "new", ["new-a", "new-b"],
               points_signature="sig-new")
    completed = run_script(old, new)
    assert completed.returncode == 0, completed.stdout
    assert "keys: 2 old mapped onto 2 new (2 moved)" in completed.stdout
    assert ("paired with equal behaviour: 1 point + 1 multicore = 2"
            in completed.stdout)
    assert ("experiment records with an unchanged semid: 1, of which 1 "
            "have a changed points_signature" in completed.stdout)


@pytest.mark.parametrize("where, message", [
    ("document", "point 0 (sst-2w/db-hashjoin) differs outside its key"),
    ("record", "point record old-a and its partner new-a differ"),
])
def test_doctored_cycle_count_fails(tmp_path, old, where, message):
    new = side(tmp_path / "new", ["new-a", "new-b"],
               points_signature="sig-new")
    path = {"document": new[0] / "e1_demo.json",
            "record": new[1] / "new-a.json"}[where]
    payload = json.loads(path.read_text())
    target = payload["points"][0] if where == "document" else \
        payload["behavior"]
    target["cycles"] += 1
    write(path, payload)
    completed = run_script(old, new)
    assert completed.returncode == 1
    assert message in completed.stdout


def test_two_old_keys_onto_one_new_key_fail(tmp_path, old):
    new = side(tmp_path / "new", ["new-a", "new-a"],
               points_signature="sig-new")
    completed = run_script(old, new)
    assert completed.returncode == 1
    assert ("old keys old-a and old-b both map to new key new-a"
            in completed.stdout)
