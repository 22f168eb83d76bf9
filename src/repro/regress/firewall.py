"""Behavior extraction + the capture/verify firewall engine.

The firewall turns every simulation of the experiment corpus into a
regression check, in the capture/replay style: behavior observed for a
previously-seen input must be bit-identical to its stored baseline
record, or the run (and CI) goes red until the change is recaptured
and the rewritten records are committed.

*Behavior* of a run is the deterministic output surface only:

* ``cycles`` / ``instructions`` — the timing-model contract;
* ``state_hash`` — semantic ID of the final architectural registers
  and the memory words the run changed or added relative to its
  program's data image (the functional contract);
* ``perf_signature`` — semantic ID of the perf counters (the
  event-driven fast-forward accounting, proven identical with and
  without the sanitizer attached);
* ``sst_signature`` — semantic ID of the full SST statistics record
  (mode-cycle breakdown, episode and fail accounting) when present.

Host wall-clock numbers never enter a behavior record, so records
verify bit-identically on any machine.

Hook points — each observes only when handed a firewall explicitly
(``repro baseline capture|verify`` builds one per experiment):

* :class:`repro.experiments.bench_env.BenchEnv` observes every
  recorded point (including cache hits — a corrupt cache entry that
  decodes cleanly but disagrees with the baseline is caught here)
  and every multicore run;
* :class:`repro.experiments.engine.ExperimentEngine` observes each
  finished experiment document (expectation outcomes, metrics/table
  signatures, and the point-key list — so an unintended cache-key
  change turns verification red even if every cycle count matches).

The firewall never raises on a divergence or an unreadable record: it
counts each one, keeps it for the report, and carries on, so one run
reports every difference at once.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.baselines.core_base import CoreResult
from repro.errors import ReproError
from repro.regress import semid as semid_mod
from repro.regress.records import BaselineRecord, BaselineSchemaError
from repro.regress.store import BaselineStore
from repro.sim.cache import SIM_SCHEMA_VERSION, multicore_key

if TYPE_CHECKING:
    from repro.sim.parallel import SimTask

MODE_CAPTURE = "capture"
MODE_VERIFY = "verify"


# ---------------------------------------------------------------------------
# Behavior extraction.
# ---------------------------------------------------------------------------


def state_hash(state: Any) -> str:
    """Semantic ID of an architectural state (registers and the memory
    words that differ from the program's data image):
    :meth:`ArchState.digest <repro.isa.interpreter.ArchState.digest>`,
    or the digest a cached state was stored with."""
    return state.digest()


def point_behavior(result: CoreResult) -> Dict[str, Any]:
    """The governed behavior surface of one core run."""
    perf = result.extra.get("perf")
    sst = result.extra.get("sst")
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "state_hash": state_hash(result.state),
        "perf_signature": (
            semid_mod.semantic_id(perf.as_dict())
            if perf is not None else None
        ),
        "sst_signature": (
            semid_mod.semantic_id(sst) if sst is not None else None
        ),
    }


def multicore_behavior(result: Any) -> Dict[str, Any]:
    """The governed behavior surface of one multiprogrammed run
    (``result`` is a :class:`repro.cmp.multicore.MulticoreResult`)."""
    return {
        "makespan": result.makespan,
        "total_instructions": result.total_instructions,
        "aggregate_ipc": round(result.aggregate_ipc, 12),
        "idle_quanta_skipped": result.idle_quanta_skipped,
        "per_core": [
            {
                "core": core.core_name,
                "cycles": core.cycles,
                "instructions": core.instructions,
                "state_hash": state_hash(core.state),
            }
            for core in result.per_core
        ],
    }


def experiment_behavior(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The governed behavior surface of one experiment document."""
    return {
        "points_signature": semid_mod.semantic_id(
            [point["key"] for point in doc["points"]]
        ),
        "n_points": len(doc["points"]),
        "expectations": {
            outcome["name"]: outcome["passed"]
            for outcome in doc["expectations"]
        },
        "ok": doc["ok"],
        "metrics_signature": semid_mod.semantic_id(doc["metrics"]),
        "table_signature": semid_mod.semantic_id(
            doc["table"]["rendered"]
        ),
    }


# ---------------------------------------------------------------------------
# The semantic ID of an experiment scenario.  Point and multicore
# scenarios are addressed by their result-cache keys,
# :func:`~repro.sim.cache.result_key` and
# :func:`~repro.sim.cache.multicore_key`.
# ---------------------------------------------------------------------------


def experiment_key(name: str, mode: str, max_instructions: int) -> str:
    """The semantic ID of one experiment scenario (identity is the
    *inputs*: which experiment, at which scale and budget, under which
    simulation schema — the resolved point keys are behavior)."""
    return semid_mod.digest_material({
        "kind": "experiment",
        "schema": SIM_SCHEMA_VERSION,
        "experiment": name,
        "mode": mode,
        "max_instructions": max_instructions,
    })


# ---------------------------------------------------------------------------
# Divergences.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BaselineDivergence:
    """One observation that differs from its stored record: a verify
    divergence, or a record that capture rewrote.

    ``fields`` holds the differing fields; ``problem`` says why there
    are none to show (the stored file was unreadable, or held the same
    record in another layout).
    """

    semid: str
    kind: str
    scenario: Dict[str, Any]
    fields: Dict[str, Any]  # field -> {"expected": ..., "observed": ...}
    problem: Optional[str] = None

    def summary(self) -> str:
        parts = ", ".join(
            f"{field}: {diff['expected']!r} -> {diff['observed']!r}"
            for field, diff in sorted(self.fields.items())
        ) or self.problem
        where = "/".join(
            str(value) for key, value in sorted(self.scenario.items())
            if key in ("core", "machine", "program", "experiment")
        )
        return (f"[{semid_mod.short_id(self.semid)}] {self.kind} "
                f"{where}: {parts}")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "semid": self.semid,
            "kind": self.kind,
            "scenario": self.scenario,
            "fields": self.fields,
            "problem": self.problem,
        }


# ---------------------------------------------------------------------------
# The firewall engine.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class FirewallStats:
    captured: int = 0   # capture wrote a record that had no file
    updated: int = 0    # capture rewrote a differing or unreadable record
    unchanged: int = 0  # capture found the stored record identical
    verified: int = 0   # verify matched the stored behavior
    divergent: int = 0  # verify mismatched, or could not read, the record
    unseen: int = 0     # verify found no record for this input (ignored)

    @property
    def observed(self) -> int:
        return sum(self.as_dict().values())

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class BaselineFirewall:
    """Observes simulation behavior and captures/verifies baselines."""

    def __init__(self, store: Optional[BaselineStore] = None, *,
                 mode: str = MODE_VERIFY):
        if mode not in (MODE_CAPTURE, MODE_VERIFY):
            raise ReproError(f"bad firewall mode {mode!r}")
        self.store = store if store is not None else BaselineStore()
        self.mode = mode
        self.stats = FirewallStats()
        self.divergences: List[BaselineDivergence] = []

    # -- observation entry points -------------------------------------

    def observe_point(self, task: SimTask, result: CoreResult) -> str:
        """Observe one point under ``task.key``, the result key its task
        computed once for the cache and the result document.

        The scenario holds only what the key digests, never the
        machine's display name, so every label a sweep gives one
        machine observes one record with one scenario.
        """
        scenario = {
            "core": task.config.mode_name,
            "program": task.program.name,
            "max_instructions": task.max_instructions,
        }
        return self._observe(task.key, "point", scenario,
                             point_behavior(result))

    def observe_multicore(self, multicore: Any, result: Any, *,
                          machine: str, program: str,
                          max_instructions: int) -> str:
        scenario = {
            "machine": machine,
            "program": program,
            "cores": len(multicore.core_configs),
            "max_instructions": max_instructions,
        }
        return self._observe(
            multicore_key(multicore, max_instructions),
            "multicore", scenario, multicore_behavior(result),
        )

    def observe_experiment(self, doc: Dict[str, Any]) -> str:
        name = doc["experiment"]["name"]
        scenario = {
            "experiment": name,
            "mode": doc["mode"],
            "max_instructions": doc["max_instructions"],
        }
        return self._observe(
            experiment_key(name, doc["mode"], doc["max_instructions"]),
            "experiment", scenario, experiment_behavior(doc),
        )

    # -- the engine ---------------------------------------------------

    def _observe(self, semid: str, kind: str,
                 scenario: Dict[str, Any],
                 behavior: Dict[str, Any]) -> str:
        """Capture or verify one observation; returns the name of the
        :class:`FirewallStats` counter it went to."""
        observed = BaselineRecord(
            semid=semid, kind=kind, scenario=scenario,
            behavior=behavior, sim_schema=SIM_SCHEMA_VERSION,
        )
        problem: Optional[str] = None
        try:
            stored = self.store.load(semid)
        except BaselineSchemaError as exc:
            stored, problem = None, str(exc)
        if self.mode == MODE_CAPTURE:
            action = self.store.capture(observed)  # compares bytes
            changes = stored.diff(observed) if stored is not None else {}
            changed = action == "updated"
        else:
            changes = (stored.diff_behavior(behavior)
                       if stored is not None else {})
            changed = bool(changes or problem)
            action = ("divergent" if changed
                      else "unseen" if stored is None else "verified")
        setattr(self.stats, action, getattr(self.stats, action) + 1)
        if changed:
            if not (changes or problem):
                problem = "the file holds another layout of this record"
            self.divergences.append(BaselineDivergence(
                semid=semid, kind=kind, scenario=scenario,
                fields={
                    field: {"expected": expected, "observed": got}
                    for field, (expected, got) in changes.items()
                },
                problem=problem,
            ))
        return action

    # -- reporting ----------------------------------------------------

    def divergent_fields(self) -> Dict[str, int]:
        """How many divergences involve each behaviour field, most first
        (ties by name); a divergence with no field to show counts as
        ``unreadable``.  The scope of a recapture, on one line."""
        counts: Dict[str, int] = {}
        for divergence in self.divergences:
            for field in divergence.fields or ("unreadable",):
                counts[field] = counts.get(field, 0) + 1
        return dict(sorted(counts.items(),
                           key=lambda item: (-item[1], item[0])))

    def merge(self, other: BaselineFirewall) -> None:
        """Fold ``other``'s counts and divergences into this firewall
        (how a corpus run split across processes reports as one)."""
        for field in dataclasses.fields(self.stats):
            setattr(self.stats, field.name,
                    getattr(self.stats, field.name)
                    + getattr(other.stats, field.name))
        self.divergences.extend(other.divergences)

    def report(self) -> Dict[str, Any]:
        """A JSON-ready diff report (the CI artifact)."""
        return {
            "schema": 2,
            "mode": self.mode,
            "baseline_dir": str(self.store.root),
            "stats": self.stats.as_dict(),
            "divergences": [
                divergence.as_dict() for divergence in self.divergences
            ],
        }
