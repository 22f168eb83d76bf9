"""The baseline record store: the schema-2 record format, byte-level
capture, and the addressing invariant."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.config import DEFAULT_MAX_INSTRUCTIONS
from repro.regress.records import (
    BaselineRecord,
    BaselineSchemaError,
    validate_record_doc,
)
from repro.regress.semid import dump_stable
from repro.regress.store import BaselineStore
from tests.conftest import stored_records

# The governed smoke corpus committed with the repository.
CORPUS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def make_record(semid: str = "a" * 64, cycles: int = 100,
                program: str = "oltp-chase") -> BaselineRecord:
    return BaselineRecord(
        semid=semid, kind="point",
        scenario={"machine": "sst-2w", "program": program,
                  "max_instructions": 1000},
        behavior={"cycles": cycles, "instructions": 50,
                  "state_hash": "b" * 64, "perf_signature": None,
                  "sst_signature": None},
        sim_schema=2,
    )


@pytest.fixture
def store(tmp_path):
    return BaselineStore(tmp_path / "baselines")


# -- capture ----------------------------------------------------------------


def test_unchanged_capture_leaves_file_untouched(store):
    assert store.capture(make_record()) == "captured"
    path = store._path("a" * 64)
    before = path.stat().st_ino, path.read_text()
    assert store.capture(make_record()) == "unchanged"
    # a rewrite would land a new file (a new inode) by atomic rename
    assert (path.stat().st_ino, path.read_text()) == before


def test_capture_rewrites_a_changed_scenario(store):
    """The whole document is compared, not only the behavior: a record
    whose scenario went stale is rewritten even though every behavior
    field still matches."""
    store.capture(make_record(program="old-name"))
    assert store.capture(make_record(program="oltp-chase")) == "updated"
    assert store.load("a" * 64).scenario["program"] == "oltp-chase"
    assert store._path("a" * 64).read_text() == \
        dump_stable(make_record().to_doc())


def test_doctored_cycle_count_is_caught(store):
    """The seeded-mutation drill: doctor a record's cycle count on
    disk and confirm a matching observation now diverges."""
    store.capture(make_record())
    assert store.capture(make_record(cycles=99999)) == "updated"

    observed = make_record().behavior
    diff = store.load("a" * 64).diff_behavior(observed)
    assert diff == {"cycles": (99999, 100)}


# -- the record format ------------------------------------------------------


def test_record_document_roundtrip(store):
    store.capture(make_record())
    path = store._path("a" * 64)
    doc = json.loads(path.read_text())
    assert set(doc) == {"schema", "sim_schema", "semid", "kind",
                        "scenario", "behavior"}
    validate_record_doc(doc)
    rebuilt = BaselineRecord.from_doc(doc)
    assert rebuilt == store.load("a" * 64) == make_record()


def test_schema_1_record_is_rejected_and_recaptured(store):
    doc = make_record().to_doc()
    doc.update(schema=1, status="approved",
               history=[{"seq": 1, "action": "capture",
                         "at": "2026-01-01T00:00:00+00:00", "note": ""}])
    path = store._path("a" * 64)
    store.root.mkdir(parents=True)
    path.write_text(dump_stable(doc))

    with pytest.raises(BaselineSchemaError) as excinfo:
        store.load("a" * 64)
    message = str(excinfo.value)
    assert "\n" not in message
    assert message.startswith(f"{path}: unsupported baseline schema 1")

    assert store.capture(make_record()) == "updated"
    assert path.read_text() == dump_stable(make_record().to_doc())


def test_unknown_field_is_rejected():
    doc = make_record().to_doc()
    doc["status"] = "approved"
    with pytest.raises(BaselineSchemaError, match="unknown field"):
        validate_record_doc(doc)


# -- addressing -------------------------------------------------------------


def test_renamed_record_file_is_rejected(store):
    store.capture(make_record())
    path = store._path("a" * 64)
    payload = path.read_text()
    (store.root / ("c" * 64 + ".json")).write_text(payload)
    with pytest.raises(BaselineSchemaError,
                       match="`repro baseline capture` rewrites it"):
        store.load("c" * 64)


# -- the committed corpus ---------------------------------------------------


def test_committed_records_name_the_capture_budget():
    """``repro baseline capture`` runs every experiment at the default
    budget, so every committed record, multicore runs included, was
    keyed and simulated at it."""
    records = stored_records(CORPUS)
    assert records
    off_budget = sorted(
        f"{record.kind} {record.semid[:12]}: "
        f"{record.scenario['max_instructions']}"
        for record in records
        if record.scenario["max_instructions"]
        != DEFAULT_MAX_INSTRUCTIONS)
    assert off_budget == []
