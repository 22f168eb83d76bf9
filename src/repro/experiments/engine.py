"""The experiment engine: one place that runs any registered spec.

``ExperimentEngine.run("e4")`` owns everything the old imperative
``bench_e*.py`` scripts each re-implemented:

1. build a fresh :class:`~repro.experiments.bench_env.BenchEnv`
   (smoke scaling, the engine's result cache, instruction budget,
   baseline firewall);
2. call the spec's build function, which returns the experiment's
   :class:`~repro.stats.report.Table` and a JSON-serializable metrics
   dictionary while every simulation point is recorded by the env;
3. normalize the metrics through a JSON round-trip so expectation
   predicates see exactly what a reloaded document would contain;
4. evaluate the spec's expectation predicates;
5. assemble the schema-versioned result document and (by default)
   persist both the text table and the JSON document under
   ``benchmarks/results/``.

Engines are cheap; construct one per configuration.  Each ``run``
builds its own environment so point recording never bleeds between
experiments.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Dict, Optional, Union

from repro.config import DEFAULT_MAX_INSTRUCTIONS
from repro.experiments.bench_env import BenchEnv, _UNSET
from repro.experiments.results import (
    RESULT_SCHEMA_VERSION,
    validate_result_doc,
    write_result_doc,
)
from repro.experiments.spec import ExperimentSpec, get
from repro.regress.firewall import BaselineFirewall
from repro.sim.cache import SIM_SCHEMA_VERSION, ResultCache, cache_from_env
from repro.stats.report import Table


class ExperimentEngine:
    """Runs registered experiment specs into result documents."""

    def __init__(self, *, smoke: bool = False,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 cache: Any = _UNSET,
                 results_dir: Optional[pathlib.Path] = None,
                 write: bool = True,
                 echo: bool = False,
                 firewall: Optional[BaselineFirewall] = None):
        self.smoke = smoke
        self.max_instructions = max_instructions
        # One result cache for every env this engine builds, so its
        # ``stats`` count the lookups and stores of all of its runs.
        self.cache: Optional[ResultCache] = (
            cache_from_env() if cache is _UNSET else cache
        )
        # Behavioral baseline firewall (repro.regress), shared across
        # every env this engine builds so its runs accumulate one
        # capture/verify report.  None observes nothing.
        self.firewall = firewall
        self.results_dir = (
            pathlib.Path(results_dir) if results_dir is not None else None
        )
        self.write = write
        self.echo = echo

    # ------------------------------------------------------------------

    def make_env(self) -> BenchEnv:
        return BenchEnv(smoke=self.smoke,
                        max_instructions=self.max_instructions,
                        cache=self.cache, firewall=self.firewall)

    def run(self, spec: Union[str, ExperimentSpec]) -> Dict[str, Any]:
        """Run one experiment; returns its validated result document."""
        if isinstance(spec, str):
            spec = get(spec)
        env = self.make_env()
        started = time.perf_counter()
        table, metrics = spec.build(env)
        wall = time.perf_counter() - started
        if not isinstance(table, Table):
            raise TypeError(
                f"{spec.name} build returned {type(table).__name__}, "
                f"expected a Table"
            )
        # Expectations run on the JSON image of the metrics, so a
        # freshly computed document and a reloaded one are
        # indistinguishable to the predicates.
        metrics = json.loads(json.dumps(metrics))
        outcomes = spec.check(metrics)
        doc: Dict[str, Any] = {
            "schema": RESULT_SCHEMA_VERSION,
            "sim_schema": SIM_SCHEMA_VERSION,
            "experiment": {
                "id": spec.eid,
                "slug": spec.slug,
                "name": spec.name,
                "title": spec.title,
                "tags": list(spec.tags),
            },
            "mode": "smoke" if env.smoke else "full",
            "max_instructions": env.max_instructions,
            "wall_seconds": round(wall, 4),
            "table": {
                "title": table.title,
                "columns": list(table.columns),
                "rows": [list(row) for row in table.rows],
                "rendered": table.render(),
            },
            "metrics": metrics,
            "points": list(env.points),
            "expectations": [outcome.as_dict() for outcome in outcomes],
            "ok": all(outcome.passed for outcome in outcomes),
        }
        validate_result_doc(doc)
        if env.firewall is not None:
            # Experiment-level baseline: expectation outcomes, metric
            # and table signatures, and the resolved point-key list —
            # an unintended cache-key change diverges here even when
            # every cycle count matches.
            env.firewall.observe_experiment(doc)
        if self.write:
            write_result_doc(doc, self.results_dir)
        if self.echo:
            print()
            print(table.render())
        return doc
