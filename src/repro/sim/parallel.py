"""The simulation batch runner.

Every simulation point in a benchmark matrix is independent —
``Machine.run`` builds a fresh hierarchy and core per run.
:class:`ParallelRunner` is the one execution engine behind the
benchmark environment's ``run`` / ``run_matrix`` and
:func:`repro.sim.compare.speedup_table`:

* **in-process, in order** — points run one after another in the
  calling process, and outcomes come back in task-submission order.
  Parallelism lives one level up: ``repro experiments run --jobs N``
  and ``repro baseline verify --jobs N`` overlap N whole experiments
  in worker processes;
* **failure isolation** — a point that raises (a diverging config, an
  instruction-budget runaway) becomes a failed :class:`TaskOutcome`
  while the rest of the batch still runs; :meth:`ParallelRunner.run`
  then raises :class:`SimTaskError` naming the failures;
* **result cache** — when given a
  :class:`~repro.sim.cache.ResultCache`, every lookup runs before any
  simulation and cached points are restored without simulating; a
  cached entry that fails golden verification is quarantined and the
  point re-simulated, and a store that fails (full disk, unregistered
  stats type) warns and continues instead of discarding the result.

A task is (config, program, budget, verify) and the runner calls the
same :func:`repro.sim.runner.simulate` every caller uses, so a result
is the same whether it was simulated here, directly, or restored from
the cache.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import List, Optional, Sequence

from repro.baselines.core_base import CoreResult
from repro.config import DEFAULT_MAX_INSTRUCTIONS, MachineConfig
from repro.errors import ReproError
from repro.isa.program import Program
from repro.sim.cache import ResultCache, result_key
from repro.sim.runner import simulate, verify_against_golden


class SimTaskError(ReproError):
    """One or more simulation tasks failed inside a batch."""


@dataclasses.dataclass(frozen=True)
class SimTask:
    """One simulation point: a (machine, program, budget) triple."""

    config: MachineConfig
    program: Program
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    verify: bool = False

    @property
    def label(self) -> str:
        return f"{self.config.name}/{self.program.name}"

    @functools.cached_property
    def key(self) -> str:
        """The point's :func:`~repro.sim.cache.result_key`, computed once
        for the cache load, the cache store and the result document."""
        return result_key(self.config, self.program, self.max_instructions)


@dataclasses.dataclass
class TaskOutcome:
    """What happened to one task: a result, or the error it raised."""

    task: SimTask
    result: Optional[CoreResult] = None
    error: Optional[str] = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def _execute_task(task: SimTask) -> TaskOutcome:
    """Simulate one task; never raises (failure isolation)."""
    try:
        result = simulate(
            task.config, task.program, verify=task.verify,
            max_instructions=task.max_instructions,
        )
    except Exception as exc:  # noqa: BLE001 - isolate any task failure
        return TaskOutcome(task=task, error=f"{type(exc).__name__}: {exc}")
    return TaskOutcome(task=task, result=result)


class ParallelRunner:
    """Runs batches of :class:`SimTask` in process, through the result
    cache.

    The name predates the move of parallelism up to whole experiments;
    it is kept because the benchmark's per-layer trace times
    :meth:`run_outcomes` as its ``sim.parallel`` layer.
    """

    def __init__(self, *, cache: Optional[ResultCache] = None):
        self.cache = cache

    # ------------------------------------------------------------------

    def run_outcomes(self, tasks: Sequence[SimTask]) -> List[TaskOutcome]:
        """Execute every task; outcomes in task order, failures isolated.

        Every cache lookup runs before any simulation.
        """
        tasks = list(tasks)
        hits = [self._try_cache_load(task) for task in tasks]
        outcomes: List[TaskOutcome] = []
        for task, hit in zip(tasks, hits):
            if hit is None:
                hit = _execute_task(task)
                if hit.ok and self.cache is not None:
                    self._store_result(hit)
            outcomes.append(hit)
        return outcomes

    def run(self, tasks: Sequence[SimTask]) -> List[CoreResult]:
        """Results in task order; raises :class:`SimTaskError` listing
        every failure after all other tasks completed."""
        outcomes = self.run_outcomes(tasks)
        failures = [o for o in outcomes if not o.ok]
        if failures:
            summary = "; ".join(
                f"{o.task.label}: {o.error}" for o in failures[:4]
            )
            raise SimTaskError(
                f"{len(failures)}/{len(outcomes)} simulation tasks "
                f"failed ({summary})"
            )
        return [outcome.result for outcome in outcomes
                if outcome.result is not None]

    # ------------------------------------------------------------------
    # Caching.
    # ------------------------------------------------------------------

    def _try_cache_load(self, task: SimTask) -> Optional[TaskOutcome]:
        """The cached outcome of ``task``, or None when it must be
        simulated: a miss, or an entry that failed golden verification
        (quarantined here, so one bad file cannot poison the point)."""
        if self.cache is None:
            return None
        key = task.key
        result = self.cache.load(key)
        if result is None:
            return None
        if task.verify:
            # Cached state is still golden-checked: the check is cheap
            # next to a timing run and guards against cache corruption.
            try:
                verify_against_golden(result, task.program)
            except Exception:  # noqa: BLE001
                self.cache.invalidate(key)
                return None
        return TaskOutcome(task=task, result=result, cached=True)

    def _store_result(self, outcome: TaskOutcome) -> None:
        """Persist one finished result; a store failure (full disk,
        unregistered stats type) must not discard the result."""
        assert self.cache is not None and outcome.result is not None
        self.cache.store_or_warn(outcome.task.key, outcome.result,
                                 outcome.task.label)
