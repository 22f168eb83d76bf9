"""``repro.regress`` — the behavioral baseline firewall.

Capture/replay regression checks for simulation behavior: every
simulation point, multicore run, and experiment document can be
captured as a schema-versioned *baseline record* keyed by its semantic
ID, then re-verified on every later run of the same inputs.  An
intentional behavior change is recaptured and the rewritten records
are committed with it (git history is the audit log); any other
divergence is a red build.

Not to be confused with :mod:`repro.baselines`, which holds the
**reference core models** (in-order and out-of-order pipelines used as
comparison points in the paper's evaluation).  ``repro.regress`` is
about *baseline behavior records* — expected-output snapshots — not
processor baselines.

Layout (mirroring the capture → replay → diff pipeline):

* :mod:`repro.regress.semid` — the canonical SHA-256 semantic-ID
  scheme shared by the result cache, result documents, and this
  firewall (import-light; safe from anywhere).
* :mod:`repro.regress.records` — the baseline record schema.
* :mod:`repro.regress.store` — the on-disk record store
  (``benchmarks/baselines/``), which checks each record as it reads
  it.
* :mod:`repro.regress.firewall` — behavior extraction and the
  capture/verify engine that ``BenchEnv`` and ``ExperimentEngine``
  feed when ``repro baseline capture|verify`` hands them a firewall.

The heavyweight submodules are loaded lazily: :mod:`repro.isa.program`
imports ``repro.regress.semid`` at interpreter startup, and the
firewall transitively imports the whole simulation stack, so an eager
import here would be circular.
"""

from __future__ import annotations

from typing import Any

from repro.regress.semid import (
    SemanticIdError,
    canonical_json,
    canonicalize,
    digest_material,
    dump_stable,
    line_digest,
    semantic_id,
    short_id,
)

__all__ = [
    "SemanticIdError",
    "canonical_json",
    "canonicalize",
    "digest_material",
    "dump_stable",
    "line_digest",
    "semantic_id",
    "short_id",
    # Lazy (PEP 562) — see __getattr__:
    "BaselineRecord",
    "BaselineStore",
    "BaselineFirewall",
]

_LAZY = {
    "BaselineRecord": ("repro.regress.records", "BaselineRecord"),
    "BaselineStore": ("repro.regress.store", "BaselineStore"),
    "BaselineFirewall": ("repro.regress.firewall", "BaselineFirewall"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
