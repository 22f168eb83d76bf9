"""repro.experiments — the reconstructed evaluation as a subsystem.

The 19 experiments behind the paper's claims are *library objects*
here, not scripts: each is an
:class:`~repro.experiments.spec.ExperimentSpec` (id, title, tags, a
build function producing a table + metrics, and expectation
predicates), registered declaratively by the ``e01_*.py`` .. ``e19_*.py``
modules in this package and executed by one shared
:class:`~repro.experiments.engine.ExperimentEngine`.

Every run emits both the classic text table and a schema-versioned
JSON result document (see :mod:`repro.experiments.results`) under
``benchmarks/results/``.  The ``repro`` console entry point
(``repro experiments list|run|report``) is the one command-line way to
drive this package.

Quickstart::

    from repro.experiments import get, list_specs, run_experiment

    for spec in list_specs():
        print(spec.eid, spec.title)

    doc = run_experiment("e4", smoke=True)   # -> validated JSON doc
    print(doc["metrics"]["speedups"])
"""

from repro.experiments.bench_env import (
    BenchEnv,
    DEFAULT_BENCH_MAX_INSTRUCTIONS,
    SMOKE_DIVISOR,
    smoke_from_env,
)
from repro.experiments.engine import ExperimentEngine, run_experiment
from repro.experiments.results import (
    RESULT_SCHEMA_VERSION,
    ResultSchemaError,
    default_results_dir,
    load_result_doc,
    result_paths,
    validate_result_doc,
    write_result_doc,
)
from repro.experiments.spec import (
    Expectation,
    ExpectationResult,
    ExperimentLookupError,
    ExperimentRegistrationError,
    ExperimentSpec,
    by_tag,
    expect,
    experiment,
    get,
    list_specs,
    load_all,
    register,
)

__all__ = [
    "BenchEnv",
    "DEFAULT_BENCH_MAX_INSTRUCTIONS",
    "SMOKE_DIVISOR",
    "smoke_from_env",
    "ExperimentEngine",
    "run_experiment",
    "RESULT_SCHEMA_VERSION",
    "ResultSchemaError",
    "default_results_dir",
    "load_result_doc",
    "result_paths",
    "validate_result_doc",
    "write_result_doc",
    "Expectation",
    "ExpectationResult",
    "ExperimentLookupError",
    "ExperimentRegistrationError",
    "ExperimentSpec",
    "by_tag",
    "expect",
    "experiment",
    "get",
    "list_specs",
    "load_all",
    "register",
]
