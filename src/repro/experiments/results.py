"""Machine-readable experiment result documents.

Every engine run emits a versioned JSON document next to the
experiment's text table under ``benchmarks/results/``:

.. code-block:: text

    {
      "schema": 1,                  # RESULT_SCHEMA_VERSION
      "sim_schema": 2,              # repro.sim.cache.SIM_SCHEMA_VERSION
      "experiment": {"id": "e4", "slug": "dq_size", "name": "e4_dq_size",
                     "title": "...", "tags": ["sst", "sizing"]},
      "mode": "full" | "smoke",
      "max_instructions": 50000000,
      "wall_seconds": 3.21,
      "table": {"title": "...", "columns": [...], "rows": [[...], ...],
                "rendered": "..."},   # rendered == the .txt file body
      "metrics": {...},             # experiment-specific, JSON values only
      "points": [{"machine": ..., "program": ..., "key": <sha256>,
                  "cycles": ..., "instructions": ..., "ipc": ...,
                  "wall_seconds": ..., "perf": {...}|null}, ...],
      "expectations": [{"name": ..., "description": ...,
                        "passed": true|false, "error": null|"..."}],
      "ok": true                     # every expectation passed
    }

``points[*].key`` is the content hash addressing the point in the
simulation result cache — a fingerprint of (machine config, program,
instruction budget) — so two documents disagreeing on a metric can be
traced to *which* simulation inputs differed.  An interleaved multicore
point carries its ``multicore_key`` (the shared hierarchy, every core's
config and program, the quantum, L1 sharing and the budget), which
addresses the run's cache entry the same way.

The documents are consumed by ``repro experiments report`` and the
repo-hygiene tests; bump :data:`RESULT_SCHEMA_VERSION` on any layout
change.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import ReproError
from repro.regress.semid import dump_stable

RESULT_SCHEMA_VERSION = 1


class ResultSchemaError(ReproError):
    """A result document does not match the published schema."""


# ---------------------------------------------------------------------------
# Locations — anchored to the repository, not the process cwd.
# ---------------------------------------------------------------------------


def repo_root() -> Optional[pathlib.Path]:
    """The source checkout containing this package, if there is one.

    In an editable / PYTHONPATH=src layout this resolves to the
    repository root; from an installed wheel (no ``benchmarks/``
    sibling) it returns None and callers fall back to the cwd.
    """
    root = pathlib.Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root
    return None


def default_results_dir() -> pathlib.Path:
    """Where result documents land: ``REPRO_RESULTS_DIR``, else the
    checkout's ``benchmarks/results/``, else ``./results``."""
    override = os.environ.get("REPRO_RESULTS_DIR", "").strip()
    if override:
        return pathlib.Path(override)
    root = repo_root()
    if root is not None:
        return root / "benchmarks" / "results"
    return pathlib.Path.cwd() / "results"


def result_paths(name: str,
                 results_dir: Optional[pathlib.Path] = None
                 ) -> Tuple[pathlib.Path, pathlib.Path]:
    """(text table path, JSON document path) for experiment ``name``."""
    directory = pathlib.Path(results_dir) if results_dir is not None \
        else default_results_dir()
    return directory / f"{name}.txt", directory / f"{name}.json"


# ---------------------------------------------------------------------------
# Validation — structural, dependency-free.
# ---------------------------------------------------------------------------

_TOP_FIELDS: Dict[str, type] = {
    "schema": int,
    "sim_schema": int,
    "experiment": dict,
    "mode": str,
    "max_instructions": int,
    "wall_seconds": (int, float),  # type: ignore[dict-item]
    "table": dict,
    "metrics": dict,
    "points": list,
    "expectations": list,
    "ok": bool,
}

_EXPERIMENT_FIELDS: Dict[str, type] = {
    "id": str, "slug": str, "name": str, "title": str, "tags": list,
}

_TABLE_FIELDS: Dict[str, type] = {
    "title": str, "columns": list, "rows": list, "rendered": str,
}

_POINT_FIELDS: Dict[str, type] = {
    "machine": str,
    "program": str,
    "cycles": int,
    "instructions": int,
    "ipc": (int, float),  # type: ignore[dict-item]
}

_EXPECTATION_FIELDS: Dict[str, type] = {
    "name": str, "description": str, "passed": bool,
}


def _require(mapping: Any, fields: Dict[str, type], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ResultSchemaError(f"{where} must be an object")
    for field, kind in fields.items():
        if field not in mapping:
            raise ResultSchemaError(f"{where} is missing {field!r}")
        if isinstance(mapping[field], bool) and kind is not bool:
            raise ResultSchemaError(
                f"{where}.{field} must be {kind}, got a bool"
            )
        if not isinstance(mapping[field], kind):
            raise ResultSchemaError(
                f"{where}.{field} must be "
                f"{getattr(kind, '__name__', kind)}, "
                f"got {type(mapping[field]).__name__}"
            )


def validate_result_doc(doc: Any) -> None:
    """Raise :class:`ResultSchemaError` unless ``doc`` is a valid
    schema-versioned experiment result document."""
    _require(doc, _TOP_FIELDS, "document")
    if doc["schema"] != RESULT_SCHEMA_VERSION:
        raise ResultSchemaError(
            f"unsupported result schema {doc['schema']!r} "
            f"(this library reads {RESULT_SCHEMA_VERSION})"
        )
    if doc["mode"] not in ("full", "smoke"):
        raise ResultSchemaError(f"bad mode {doc['mode']!r}")
    _require(doc["experiment"], _EXPERIMENT_FIELDS, "experiment")
    _require(doc["table"], _TABLE_FIELDS, "table")
    for index, point in enumerate(doc["points"]):
        _require(point, _POINT_FIELDS, f"points[{index}]")
    for index, expectation in enumerate(doc["expectations"]):
        _require(expectation, _EXPECTATION_FIELDS,
                 f"expectations[{index}]")
    metrics_json_ok = doc["metrics"] == json.loads(
        json.dumps(doc["metrics"])
    )
    if not metrics_json_ok:
        raise ResultSchemaError("metrics must round-trip through JSON")


# ---------------------------------------------------------------------------
# I/O.
# ---------------------------------------------------------------------------


def write_result_doc(doc: Dict[str, Any],
                     results_dir: Optional[pathlib.Path] = None
                     ) -> Tuple[pathlib.Path, pathlib.Path]:
    """Persist the text table and JSON document for ``doc``; returns
    (txt path, json path)."""
    validate_result_doc(doc)
    txt_path, json_path = result_paths(doc["experiment"]["name"],
                                       results_dir)
    txt_path.parent.mkdir(parents=True, exist_ok=True)
    txt_path.write_text(doc["table"]["rendered"] + "\n")
    json_path.write_text(dump_stable(doc))
    return txt_path, json_path


def load_result_doc(name_or_path: Union[str, pathlib.Path],
                    results_dir: Optional[pathlib.Path] = None
                    ) -> Dict[str, Any]:
    """Load and validate a stored result document by experiment name
    (``e4_dq_size``), id-resolved name, or explicit path."""
    path = pathlib.Path(name_or_path)
    if path.suffix != ".json":
        _, path = result_paths(str(name_or_path), results_dir)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ResultSchemaError(f"no result document at {path}") from None
    except json.JSONDecodeError as exc:
        raise ResultSchemaError(f"{path} is not JSON: {exc}") from None
    validate_result_doc(doc)
    return doc
