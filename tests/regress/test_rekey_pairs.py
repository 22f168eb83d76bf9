"""``benchmarks/rekey_pairs.py``: a recaptured corpus passes only when
keys, and nothing else, moved, and several old keys share a new one
only when their records differ in labels alone."""

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


def side(root, keys, *, points_signature, specs=POINTS):
    """One side's documents and records: one document whose points have
    ``keys`` and ``specs``, a record per point, and the experiment's
    record."""
    docs, records = root / "docs", root / "records"
    docs.mkdir(parents=True)
    records.mkdir()
    points = []
    for key, (kind, machine, program, cycles) in zip(keys, specs):
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


# Two sweeps' labels for one machine: equal but for the display name.
ALIASES = [("point", "sst-2w", "db-hashjoin", 4639),
           ("point", "sst-dq64", "db-hashjoin", 4639)]


def merged_side(root, specs):
    """The new side of a name-only merge: both points under one key,
    whose record's scenario holds the core kind, not a display name."""
    new = side(root, ["new-a", "new-a"], points_signature="sig-new",
               specs=specs)
    path = new[1] / "new-a.json"
    record = json.loads(path.read_text())
    record["scenario"] = {"core": "sst", "program": "db-hashjoin"}
    write(path, record)
    return new


def test_name_only_merge_passes(tmp_path):
    old = side(tmp_path / "old", ["old-a", "old-b"],
               points_signature="sig-old", specs=ALIASES)
    completed = run_script(old, merged_side(tmp_path / "new", ALIASES))
    assert completed.returncode == 0, completed.stdout
    assert "keys: 2 old mapped onto 1 new (2 moved)" in completed.stdout
    assert "name-only merges: 1 (2 old keys onto 1 new)" in completed.stdout
    assert ("paired with equal behaviour: 2 point + 0 multicore = 2"
            in completed.stdout)


def test_merge_of_unequal_behaviour_fails(tmp_path):
    unequal = [ALIASES[0], ALIASES[1][:3] + (4640,)]
    old = side(tmp_path / "old", ["old-a", "old-b"],
               points_signature="sig-old", specs=unequal)
    completed = run_script(old, merged_side(tmp_path / "new", unequal))
    assert completed.returncode == 1
    assert ("old keys old-a and old-b both map to new key new-a, and their "
            "records differ in more than labels" in completed.stdout)
    assert "name-only merges: 0 (0 old keys onto 0 new)" in completed.stdout
