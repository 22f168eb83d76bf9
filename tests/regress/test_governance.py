"""Governance lifecycle of baseline records: capture, promote, retire,
the append-only audit history, and the doctored-record detection the
firewall exists for."""

from __future__ import annotations

import json

import pytest

from repro.regress.records import (
    BaselineAuditError,
    BaselineRecord,
    BaselineSchemaError,
    BaselineTransitionError,
    validate_record_doc,
)
from repro.regress.store import BaselineLookupError, BaselineStore


def make_record(semid: str = "a" * 64, cycles: int = 100) -> BaselineRecord:
    return BaselineRecord(
        semid=semid, kind="point",
        scenario={"machine": "sst-2w", "program": "oltp-chase",
                  "max_instructions": 1000},
        behavior={"cycles": cycles, "instructions": 50,
                  "state_hash": "b" * 64, "perf_signature": None,
                  "sst_signature": None},
        sim_schema=2,
    )


@pytest.fixture
def store(tmp_path):
    return BaselineStore(tmp_path / "baselines")


# -- lifecycle round-trips --------------------------------------------------


def test_capture_promote_roundtrip(store):
    assert store.capture(make_record(), note="first") == "captured"
    record = store.get("a" * 64)
    assert record.status == "candidate"
    assert store.promote("a" * 64, note="looks right") == "promoted"
    record = store.get("a" * 64)
    assert record.status == "approved"
    assert [entry["action"] for entry in record.history] == \
        ["capture", "promote"]
    assert record.history[1]["note"] == "looks right"


def test_recapture_parks_candidate_until_promoted(store):
    store.capture(make_record())
    store.promote("a" * 64)
    # behavior changed: the observation parks, the governed behavior
    # stays put
    assert store.capture(make_record(cycles=117)) == "recaptured"
    record = store.get("a" * 64)
    assert record.behavior["cycles"] == 100
    assert record.candidate_behavior["cycles"] == 117
    # the same divergent observation again: still pending, no new entry
    assert store.capture(make_record(cycles=117)) == "pending"
    # promote installs the pending behavior
    assert store.promote("a" * 64) == "promoted-recapture"
    record = store.get("a" * 64)
    assert record.behavior["cycles"] == 117
    assert record.candidate_behavior is None
    assert record.status == "approved"


def test_reconverged_clears_pending_candidate(store):
    store.capture(make_record())
    store.promote("a" * 64)
    store.capture(make_record(cycles=117))
    # the code change was reverted: behavior matches the approved
    # record again, so the pending candidate is dropped
    assert store.capture(make_record(cycles=100)) == "reconverged"
    record = store.get("a" * 64)
    assert record.candidate_behavior is None
    assert record.history[-1]["action"] == "reconverged"


def test_unchanged_capture_leaves_file_untouched(store):
    store.capture(make_record())
    path = store._path("a" * 64)
    before = path.read_text()
    assert store.capture(make_record()) == "unchanged"
    assert path.read_text() == before


def test_retire_roundtrip_and_terminality(store):
    store.capture(make_record())
    store.promote("a" * 64)
    store.retire("a" * 64, note="scenario removed")
    record = store.get("a" * 64)
    assert record.status == "retired"
    # retired is terminal: no promote, no recapture
    with pytest.raises(BaselineTransitionError):
        store.promote("a" * 64)
    assert store.capture(make_record(cycles=999)) == "retired"
    assert store.get("a" * 64).behavior["cycles"] == 100


# -- illegal transitions ----------------------------------------------------


def test_promote_approved_with_nothing_pending_rejected(store):
    store.capture(make_record())
    store.promote("a" * 64)
    with pytest.raises(BaselineTransitionError):
        store.promote("a" * 64)


def test_retire_retired_rejected():
    record = make_record()
    record.retire()
    with pytest.raises(BaselineTransitionError):
        record.retire()


# -- append-only audit ------------------------------------------------------


def test_save_rejects_rewritten_history(store):
    store.capture(make_record())
    store.promote("a" * 64)
    record = store.get("a" * 64)
    record.history[0]["action"] = "never-happened"
    with pytest.raises(BaselineAuditError):
        store.save(record)


def test_save_rejects_dropped_history(store):
    store.capture(make_record())
    store.promote("a" * 64)
    record = store.get("a" * 64)
    record.history = record.history[:1]
    with pytest.raises(BaselineAuditError):
        store.save(record)


def test_history_seq_must_be_dense():
    record = make_record()
    record.log("capture")
    doc = record.to_doc()
    doc["history"][0]["seq"] = 7
    with pytest.raises(BaselineSchemaError):
        validate_record_doc(doc)


# -- doctored records -------------------------------------------------------


def test_doctored_cycle_count_is_caught(store):
    """The seeded-mutation drill: doctor an approved record's cycle
    count on disk and confirm a matching observation now diverges."""
    store.capture(make_record())
    store.promote("a" * 64)
    record = store.get("a" * 64)
    record.behavior["cycles"] = 99999
    record.log("doctor", "seeded mutation")
    store.save(record)

    observed = make_record().behavior
    diff = store.get("a" * 64).diff_behavior(observed)
    assert diff == {"cycles": (99999, 100)}


def test_renamed_record_file_is_rejected(store):
    store.capture(make_record())
    path = store._path("a" * 64)
    payload = path.read_text()
    (store.root / ("c" * 64 + ".json")).write_text(payload)
    with pytest.raises(BaselineSchemaError):
        store.load("c" * 64)
    report = store.fsck()
    assert report.semid_mismatch == 1
    assert report.ok == 1


def test_fsck_flags_invalid_json_without_removing(store):
    store.capture(make_record())
    bad = store.root / ("d" * 64 + ".json")
    bad.write_text("{ not json")
    report = store.fsck()
    assert report.invalid == 1
    assert report.ok == 1
    assert bad.exists()  # governed state is never auto-removed


# -- store addressing -------------------------------------------------------


def test_resolve_prefix_git_style(store):
    store.capture(make_record("a" * 64))
    store.capture(make_record("ab" + "c" * 62))
    assert store.resolve("aa") == "a" * 64
    with pytest.raises(BaselineLookupError):
        store.resolve("a")  # ambiguous
    with pytest.raises(BaselineLookupError) as excinfo:
        store.resolve("ff")  # no match
    assert isinstance(excinfo.value, KeyError)
    assert str(excinfo.value).startswith("no baseline record matches 'ff'")


def test_record_document_roundtrip(store):
    store.capture(make_record())
    path = store._path("a" * 64)
    doc = json.loads(path.read_text())
    validate_record_doc(doc)
    rebuilt = BaselineRecord.from_doc(doc)
    assert rebuilt == store.get("a" * 64)
