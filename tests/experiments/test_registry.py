"""The experiment registry: every spec registered, ids unique, lookups
resolve, and the spec-module files on disk agree with the registry."""

import pathlib
import re

import pytest

import repro.experiments.spec as spec_module
from repro.experiments import (
    ExperimentRegistrationError,
    ExperimentSpec,
    by_tag,
    expect,
    get,
    list_specs,
)
from repro.experiments.spec import ExperimentLookupError

EXPECTED_COUNT = 19


def test_all_experiments_registered():
    specs = list_specs()
    assert len(specs) == EXPECTED_COUNT
    assert [spec.eid for spec in specs] == [
        f"e{n}" for n in range(1, EXPECTED_COUNT + 1)
    ]


def test_ids_slugs_and_names_unique():
    specs = list_specs()
    assert len({spec.eid for spec in specs}) == EXPECTED_COUNT
    assert len({spec.slug for spec in specs}) == EXPECTED_COUNT
    assert len({spec.name for spec in specs}) == EXPECTED_COUNT


def test_registry_matches_spec_modules_on_disk():
    """Every ``e*_*.py`` module registers exactly its own experiment.

    Module files zero-pad the number for directory ordering
    (``e04_dq_size.py``); the registered name does not (``e4_dq_size``).
    """
    package_dir = pathlib.Path(spec_module.__file__).parent
    on_disk = set()
    for path in package_dir.glob("e[0-9]*_*.py"):
        match = re.fullmatch(r"e0*(\d+)_([a-z0-9_]+)", path.stem)
        assert match, f"bad spec module name {path.name}"
        on_disk.add(f"e{match.group(1)}_{match.group(2)}")
    registered = {spec.name for spec in list_specs()}
    assert on_disk == registered


def test_get_resolves_id_name_and_case():
    assert get("e4").slug == "dq_size"
    assert get("e4_dq_size").eid == "e4"
    assert get("E4") is get("e4")


def test_get_unknown_raises_lookup_error():
    with pytest.raises(ExperimentLookupError, match="e999") as excinfo:
        get("e999")
    # still a KeyError for callers, but printed without KeyError's quotes
    assert isinstance(excinfo.value, KeyError)
    assert str(excinfo.value).startswith("no experiment 'e999' (known: ")


def test_by_tag_filters_in_order():
    sst = by_tag("sst")
    assert sst, "no experiments tagged 'sst'"
    assert all("sst" in spec.tags for spec in sst)
    assert [spec.number for spec in sst] == sorted(
        spec.number for spec in sst
    )
    assert by_tag("no_such_tag") == []


def test_every_spec_is_fully_described():
    for spec in list_specs():
        assert spec.title, spec.eid
        assert spec.tags, spec.eid
        assert spec.expectations, f"{spec.eid} has no expectations"
        for expectation in spec.expectations:
            assert expectation.name and expectation.description


def test_duplicate_registration_rejected():
    existing = get("e4")
    clone = ExperimentSpec(
        eid="e4", slug="other_slug", title="clone", build=lambda env: None,
    )
    with pytest.raises(ExperimentRegistrationError, match="duplicate"):
        spec_module.register(clone)
    assert get("e4") is existing


def test_bad_id_and_slug_rejected():
    with pytest.raises(ExperimentRegistrationError, match="id"):
        ExperimentSpec(eid="x4", slug="fine", title="t",
                       build=lambda env: None)
    with pytest.raises(ExperimentRegistrationError, match="slug"):
        ExperimentSpec(eid="e99", slug="Not Snake", title="t",
                       build=lambda env: None)


def test_expectation_evaluation_catches_doctored_metrics():
    probe = expect("positive", "value must be positive",
                   lambda m: m["value"] > 0)
    assert probe.evaluate({"value": 3}).passed
    missed = probe.evaluate({"value": -1})
    assert not missed.passed and missed.error is None
    # A doctored/missing metric is a failure with the error recorded,
    # not an exception.
    broken = probe.evaluate({})
    assert not broken.passed
    assert broken.error and "KeyError" in broken.error
