"""Parallel simulation engine.

Every simulation point in a sweep or benchmark matrix is independent —
``Machine.run`` builds a fresh hierarchy and core per run — so a batch
of points is embarrassingly parallel.  :class:`ParallelRunner` is the
one execution engine behind :func:`repro.sim.sweep.sweep`,
``sweep_many``, ``compare_machines`` and the benchmark harness's
``run_matrix``:

* **worker pool** — ``REPRO_JOBS`` (or the ``jobs`` argument) processes
  via ``multiprocessing``; ``jobs=1`` short-circuits to a zero-overhead
  in-process loop, so the default behavior (env unset) is byte-for-byte
  the old serial path;
* **ordered collection** — results come back in task-submission order
  regardless of completion order, so sweeps stay aligned with their
  axis;
* **failure taxonomy** — every failure is classified structurally
  (:mod:`repro.sim.resilience`): deterministic simulation errors
  (``task-error``) are reported immediately; per-task deadline expiry
  (``pool-timeout``) and dead workers (``worker-crash``) are transient
  and retried with exponential backoff up to ``REPRO_TASK_RETRIES``
  extra rounds, each round re-dispatching *only* the unfinished tasks
  on a fresh pool — finished points are never re-run; ``on_error``
  ("raise"/"skip") governs what happens to failures that exhaust their
  retries;
* **result cache** — when given a
  :class:`~repro.sim.cache.ResultCache`, cached points are restored
  without touching the pool; a cached entry that fails integrity
  checking (``cache-corrupt``) is quarantined and the point re-simulated,
  and a store that fails (full disk, unregistered stats type) warns and
  continues instead of discarding the finished batch;
* **fault injection** — ``REPRO_FAULT_INJECT``
  (:mod:`repro.sim.faults`) deterministically exercises every one of
  these recovery paths.

Workers recompute nothing hidden: a task is (config, program, budget,
verify) and the worker calls the same :func:`repro.sim.runner.simulate`
the serial path uses, so parallel results — including retried ones —
are bit-identical to serial, failure-free runs.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
import warnings
from typing import Any, List, Optional, Sequence, Tuple

from repro.baselines.core_base import CoreResult, DEFAULT_MAX_INSTRUCTIONS
from repro.config import MachineConfig, env_int
from repro.errors import ConfigError, ReproError
from repro.isa.program import Program
from repro.regress.semid import SemanticIdError
from repro.sim.cache import ResultCache
from repro.sim.faults import fault_plan_from_env
from repro.sim.resilience import (
    KIND_CACHE_CORRUPT,
    KIND_POOL_TIMEOUT,
    KIND_TASK_ERROR,
    KIND_WORKER_CRASH,
    RetryPolicy,
    policy_from_env,
)
from repro.sim.runner import simulate, verify_against_golden


class SimTaskError(ReproError):
    """One or more simulation tasks failed inside a parallel batch."""


@dataclasses.dataclass(frozen=True)
class SimTask:
    """One simulation point: a (machine, program, budget) triple."""

    config: MachineConfig
    program: Program
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    verify: bool = False
    # Caller's correlation key (e.g. the sweep-axis value); carried
    # through unchanged so outcomes are self-describing.
    tag: Any = None

    @property
    def label(self) -> str:
        return f"{self.config.name}/{self.program.name}"


@dataclasses.dataclass
class TaskOutcome:
    """What happened to one task: a result, or a classified failure.

    ``kind`` is one of the :mod:`repro.sim.resilience` taxonomy values
    (``task-error``, ``pool-timeout``, ``worker-crash``,
    ``cache-corrupt``) whenever ``error`` is set, and None on success.
    ``attempts`` counts execution attempts, so a point recovered by the
    retry machinery is distinguishable from one that succeeded outright.
    """

    task: SimTask
    result: Optional[CoreResult] = None
    error: Optional[str] = None
    cached: bool = False
    kind: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else 1.

    Inside a pool worker (daemonic process) this always resolves to 1:
    daemon processes cannot fork children, so nested parallel calls
    degrade gracefully to inline execution.
    """
    if multiprocessing.current_process().daemon:
        return 1
    if jobs is None:
        jobs = env_int("REPRO_JOBS", 1)
    if jobs <= 0:  # 0 / negative = "use every core"
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def _execute_task(task: SimTask, attempt: int = 1,
                  in_pool: bool = False) -> Tuple[str, Any]:
    """Pool worker body: never raises (crash isolation).

    Returns a (status, payload) pair; ``status`` is ``"ok"``,
    ``"error"`` (the simulation raised — deterministic), ``"crash"``
    (injected worker death), or ``"timeout"`` (injected hang on the
    inline path, where there is no deadline to reap a real sleep).
    """
    plan = fault_plan_from_env()
    if plan is not None:
        if plan.should_crash(task.label, attempt):
            return "crash", (
                f"injected worker crash (REPRO_FAULT_INJECT, "
                f"attempt {attempt})"
            )
        if plan.should_hang(task.label, attempt):
            if in_pool:
                # A real hang: the collector's per-task deadline reaps
                # this worker, exercising the pool-timeout path.
                time.sleep(plan.hang_seconds)
            else:
                return "timeout", (
                    f"injected hang (REPRO_FAULT_INJECT, "
                    f"attempt {attempt})"
                )
    try:
        result = simulate(
            task.config, task.program, verify=task.verify,
            max_instructions=task.max_instructions,
        )
        return "ok", result
    except Exception as exc:  # noqa: BLE001 - isolate any task failure
        return "error", f"{type(exc).__name__}: {exc}"


class ParallelRunner:
    """Runs batches of :class:`SimTask` with caching, a process pool,
    and transient-failure retries."""

    def __init__(self, jobs: Optional[int] = None, *,
                 timeout: Optional[float] = None,
                 cache: Optional[ResultCache] = None,
                 retries: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None):
        self.jobs = resolve_jobs(jobs)
        if timeout is None:
            env = os.environ.get("REPRO_TASK_TIMEOUT", "").strip()
            if env:
                try:
                    timeout = float(env)
                except ValueError:
                    raise ConfigError(
                        f"REPRO_TASK_TIMEOUT must be a number, got {env!r}"
                    ) from None
        self.timeout = timeout
        self.cache = cache
        self.retry_policy = (
            retry_policy if retry_policy is not None
            else policy_from_env(retries)
        )

    # ------------------------------------------------------------------

    def run_outcomes(self, tasks: Sequence[SimTask]) -> List[TaskOutcome]:
        """Execute every task; outcomes in task order, failures isolated."""
        tasks = list(tasks)
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)

        pending: List[int] = []
        for index, task in enumerate(tasks):
            hit = self._try_cache_load(task)
            if hit is None:
                pending.append(index)
            elif hit.kind == KIND_CACHE_CORRUPT:
                # The entry was quarantined inside _try_cache_load;
                # fall through to re-simulation so one bad file cannot
                # poison this point forever.
                pending.append(index)
            else:
                outcomes[index] = hit

        if pending:
            executed = self._execute_batch([tasks[i] for i in pending])
            for index, outcome in zip(pending, executed):
                outcomes[index] = outcome
                if outcome.ok and self.cache is not None:
                    self._store_result(outcome)

        return [outcome for outcome in outcomes if outcome is not None]

    def run(self, tasks: Sequence[SimTask], *,
            on_error: str = "raise") -> List[Optional[CoreResult]]:
        """Results in task order.

        ``on_error="raise"``: raise :class:`SimTaskError` listing every
        failure (after all other tasks completed).  ``"skip"``: failed
        points come back as None for the caller to filter.
        """
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', "
                             f"got {on_error!r}")
        outcomes = self.run_outcomes(tasks)
        failures = [o for o in outcomes if not o.ok]
        if failures and on_error == "raise":
            summary = "; ".join(
                f"{o.task.label}: [{o.kind} after {o.attempts} "
                f"attempt(s)] {o.error}"
                for o in failures[:4]
            )
            raise SimTaskError(
                f"{len(failures)}/{len(outcomes)} simulation tasks "
                f"failed ({summary})"
            )
        return [outcome.result for outcome in outcomes]

    # ------------------------------------------------------------------
    # Caching.
    # ------------------------------------------------------------------

    def _try_cache_load(self, task: SimTask) -> Optional[TaskOutcome]:
        if self.cache is None:
            return None
        key = self.cache.key(task.config, task.program,
                             task.max_instructions)
        result = self.cache.load(key)
        if result is None:
            return None
        if task.verify:
            # Cached state is still golden-checked: the check is cheap
            # next to a timing run and guards against cache corruption.
            try:
                verify_against_golden(result, task.program)
            except Exception as exc:  # noqa: BLE001
                self.cache.invalidate(key)
                return TaskOutcome(
                    task=task, cached=True, kind=KIND_CACHE_CORRUPT,
                    error=(f"quarantined corrupt cache entry: "
                           f"{type(exc).__name__}: {exc}"),
                )
        return TaskOutcome(task=task, result=result, cached=True)

    def _store_result(self, outcome: TaskOutcome) -> None:
        """Persist one finished result; a store failure (full disk,
        unregistered stats type) must not discard the batch."""
        assert self.cache is not None and outcome.result is not None
        key = self.cache.key(
            outcome.task.config, outcome.task.program,
            outcome.task.max_instructions,
        )
        try:
            self.cache.store(key, outcome.result)
        except (SemanticIdError, OSError) as exc:
            warnings.warn(
                f"result cache store failed for {outcome.task.label} "
                f"({type(exc).__name__}: {exc}); result kept in memory, "
                f"continuing without caching this point",
                RuntimeWarning,
                stacklevel=4,
            )

    # ------------------------------------------------------------------
    # Execution with retry rounds.
    # ------------------------------------------------------------------

    def _execute_batch(self, tasks: List[SimTask]) -> List[TaskOutcome]:
        """All tasks through retry rounds; one final outcome per task,
        in submission order.

        Round 1 runs everything; each later round re-dispatches only
        the tasks whose failure kind is transient (pool-timeout,
        worker-crash) on a *fresh* pool, so a hung worker from an
        earlier round can never block a retry.
        """
        final: List[Optional[TaskOutcome]] = [None] * len(tasks)
        remaining = list(range(len(tasks)))
        attempt = 1
        while remaining:
            batch = [tasks[i] for i in remaining]
            if self.jobs > 1 and len(batch) > 1:
                round_outcomes = self._pool_round(batch, attempt)
            else:
                round_outcomes = [self._run_inline(task, attempt)
                                  for task in batch]
            retry: List[int] = []
            for index, outcome in zip(remaining, round_outcomes):
                outcome.attempts = attempt
                final[index] = outcome
                if not outcome.ok and self.retry_policy.should_retry(
                        outcome.kind, attempt):
                    retry.append(index)
            if retry:
                self.retry_policy.pause(attempt)
            remaining = retry
            attempt += 1
        return [outcome for outcome in final if outcome is not None]

    def _run_inline(self, task: SimTask, attempt: int = 1) -> TaskOutcome:
        status, payload = _execute_task(task, attempt)
        return self._classify(task, status, payload)

    def _pool_round(self, tasks: List[SimTask],
                    attempt: int) -> List[TaskOutcome]:
        """One dispatch of ``tasks`` over a fresh pool.

        Each task gets its own collection deadline; a task that times
        out is reported as ``pool-timeout`` while the rest of the batch
        keeps collecting (other workers are still making progress).  If
        anything timed out the pool is torn down at the end of the
        round — its hung workers can never drain — and the retry round
        builds a new one.
        """
        workers = min(self.jobs, len(tasks))
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        outcomes: List[TaskOutcome] = []
        timed_out = False
        pool = context.Pool(processes=workers)
        try:
            handles = [pool.apply_async(_execute_task,
                                        (task, attempt, True))
                       for task in tasks]
            for task, handle in zip(tasks, handles):
                outcome = self._collect(task, handle)
                if outcome.kind == KIND_POOL_TIMEOUT:
                    timed_out = True
                outcomes.append(outcome)
        finally:
            if timed_out:
                pool.terminate()
            else:
                pool.close()
            pool.join()
        return outcomes

    def _collect(self, task: SimTask, handle: Any) -> TaskOutcome:
        try:
            status, payload = handle.get(self.timeout)
        except multiprocessing.TimeoutError:
            # Structural classification: only the pool's own deadline
            # machinery lands here.  A workload raising TimeoutError
            # inside simulate comes back as a task-error payload.
            return TaskOutcome(task=task, kind=KIND_POOL_TIMEOUT, error=(
                f"no result within {self.timeout}s"
            ))
        except Exception as exc:  # worker died / untransportable result
            return TaskOutcome(task=task, kind=KIND_WORKER_CRASH,
                               error=f"{type(exc).__name__}: {exc}")
        return self._classify(task, status, payload)

    @staticmethod
    def _classify(task: SimTask, status: str, payload: Any) -> TaskOutcome:
        if status == "ok":
            return TaskOutcome(task=task, result=payload)
        kind = {
            "error": KIND_TASK_ERROR,
            "crash": KIND_WORKER_CRASH,
            "timeout": KIND_POOL_TIMEOUT,
        }[status]
        return TaskOutcome(task=task, kind=kind, error=payload)


def run_simulations(tasks: Sequence[SimTask], *,
                    jobs: Optional[int] = None,
                    timeout: Optional[float] = None,
                    cache: Optional[ResultCache] = None,
                    retries: Optional[int] = None,
                    on_error: str = "raise") -> List[Optional[CoreResult]]:
    """One-shot convenience wrapper over :class:`ParallelRunner`."""
    runner = ParallelRunner(jobs, timeout=timeout, cache=cache,
                            retries=retries)
    return runner.run(tasks, on_error=on_error)
