"""Baseline behavior records: the on-disk schema.

A *baseline record* pins the expected behavior of one previously-seen
simulation input, keyed by the input's semantic ID (for single-machine
points that is exactly the result-cache key, so the cache and the
firewall agree on identity by construction).  On disk a record is one
JSON file under ``benchmarks/baselines/``:

.. code-block:: text

    {
      "schema": 2,                  # BASELINE_SCHEMA_VERSION
      "sim_schema": 2,              # repro.sim.cache.SIM_SCHEMA_VERSION
      "semid": "<sha256>",          # == the addressing filename stem
      "kind": "point" | "multicore" | "experiment",
      "scenario": {...},            # human-readable input description
      "behavior": {...}             # the expected behavior
    }

Behavior dictionaries hold only deterministic simulation outputs —
cycle counts, retired instructions, a final-architectural-state hash,
a perf-counter signature, expectation outcomes — never host wall-clock
measurements, so a record verifies bit-identically on any machine.

A record is a pure function of the code that observed it: capturing
the corpus into an empty directory reproduces the committed store byte
for byte.  Records carry no lifecycle or audit trail; git history is
the audit log, and the diff of ``benchmarks/baselines/`` in a change
is its approval.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError

BASELINE_SCHEMA_VERSION = 2

KINDS = ("point", "multicore", "experiment")


class BaselineSchemaError(ReproError):
    """A baseline record does not match the published schema."""


@dataclasses.dataclass
class BaselineRecord:
    """One behavior record (see the module docstring)."""

    semid: str
    kind: str
    scenario: Dict[str, Any]
    behavior: Dict[str, Any]
    sim_schema: Optional[int] = None

    # -- comparison ---------------------------------------------------

    def diff_behavior(
            self, observed: Dict[str, Any]
    ) -> Dict[str, Tuple[Any, Any]]:
        """Field-wise ``{name: (expected, observed)}`` divergences."""
        return {
            field: (self.behavior.get(field), observed.get(field))
            for field in sorted(set(self.behavior) | set(observed))
            if self.behavior.get(field) != observed.get(field)
        }

    def diff(self, observed: "BaselineRecord"
             ) -> Dict[str, Tuple[Any, Any]]:
        """:meth:`diff_behavior`, plus ``kind``, ``scenario`` and
        ``sim_schema`` when those differ too."""
        changes = self.diff_behavior(observed.behavior)
        for field in ("kind", "scenario", "sim_schema"):
            if getattr(self, field) != getattr(observed, field):
                changes[field] = (getattr(self, field),
                                  getattr(observed, field))
        return changes

    # -- (de)serialization --------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        doc = {
            "schema": BASELINE_SCHEMA_VERSION,
            "sim_schema": self.sim_schema,
            "semid": self.semid,
            "kind": self.kind,
            "scenario": self.scenario,
            "behavior": self.behavior,
        }
        validate_record_doc(doc)
        return doc

    @classmethod
    def from_doc(cls, doc: Any) -> "BaselineRecord":
        validate_record_doc(doc)
        return cls(
            semid=doc["semid"],
            kind=doc["kind"],
            scenario=doc["scenario"],
            behavior=doc["behavior"],
            sim_schema=doc["sim_schema"],
        )


_TOP_FIELDS: Dict[str, type] = {
    "semid": str,
    "kind": str,
    "scenario": dict,
    "behavior": dict,
}


def validate_record_doc(doc: Any) -> None:
    """Raise :class:`BaselineSchemaError` unless ``doc`` is a valid
    schema-versioned baseline record document."""
    if not isinstance(doc, dict):
        raise BaselineSchemaError("baseline record must be an object")
    if doc.get("schema") != BASELINE_SCHEMA_VERSION or not isinstance(
            doc["schema"], int):
        raise BaselineSchemaError(
            f"unsupported baseline schema {doc.get('schema')!r} "
            f"(this library reads {BASELINE_SCHEMA_VERSION}; "
            f"`repro baseline capture` rewrites the record)"
        )
    for field, kind in _TOP_FIELDS.items():
        if field not in doc:
            raise BaselineSchemaError(
                f"baseline record is missing {field!r}"
            )
        if not isinstance(doc[field], kind):
            raise BaselineSchemaError(
                f"baseline record field {field!r} must be "
                f"{kind.__name__}, got {type(doc[field]).__name__}"
            )
    if "sim_schema" not in doc or not isinstance(
            doc["sim_schema"], (int, type(None))) or isinstance(
            doc["sim_schema"], bool):
        raise BaselineSchemaError("sim_schema must be an int or null")
    extra = sorted(set(doc) - set(_TOP_FIELDS) - {"schema", "sim_schema"})
    if extra:
        raise BaselineSchemaError(
            f"baseline record has unknown field(s) {', '.join(extra)}"
        )
    if doc["kind"] not in KINDS:
        raise BaselineSchemaError(f"bad kind {doc['kind']!r}")
