"""Behavior extraction + the capture/verify firewall engine.

The firewall turns every simulation of the experiment corpus into a
governed regression check, in the capture/replay style: behavior
observed for a previously-seen input must be bit-identical to the
stored baseline record, or the run (and CI) goes red until the change
is explicitly promoted.

*Behavior* of a run is the deterministic output surface only:

* ``cycles`` / ``instructions`` — the timing-model contract;
* ``state_hash`` — semantic ID of the final architectural registers
  and memory (the functional contract);
* ``perf_signature`` — semantic ID of the perf counters (the
  event-driven fast-forward accounting, proven identical across the
  block-dispatch / sanitizer execution variants);
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

A strict firewall raises on the first divergence; the CLI runs
non-strict firewalls to report every divergence at once.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.baselines.core_base import CoreResult
from repro.errors import ReproError
from repro.regress import semid as semid_mod
from repro.regress.records import BaselineRecord, STATUS_RETIRED
from repro.regress.store import BaselineStore
from repro.sim.cache import SIM_SCHEMA_VERSION, canonicalize, result_key

MODE_CAPTURE = "capture"
MODE_VERIFY = "verify"


# ---------------------------------------------------------------------------
# Behavior extraction.
# ---------------------------------------------------------------------------


def state_hash(state: Any) -> str:
    """Semantic ID of an architectural state (registers + memory)."""
    return semid_mod.semantic_id({
        "regs": list(state.regs),
        "memory": sorted(state.memory.items()),
    })


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
# Semantic IDs for the non-point scenario kinds.
# ---------------------------------------------------------------------------


def multicore_key(multicore: Any, max_instructions: int) -> str:
    """The semantic ID of one multiprogrammed scenario.

    Multicore runs are not *cacheable* (the cores share one hierarchy,
    so a per-core result is not a pure single-config function), but
    they are still deterministic pure functions of their full input
    set — which is all a baseline needs.
    """
    return semid_mod.digest_material({
        "kind": "multicore",
        "schema": SIM_SCHEMA_VERSION,
        "hierarchy": canonicalize(multicore.hierarchy_config),
        "cores": [canonicalize(config)
                  for config in multicore.core_configs],
        "programs": [program.fingerprint()
                     for program in multicore.programs],
        "quantum": multicore.quantum,
        "share_l1": multicore.share_l1,
        "max_instructions": max_instructions,
    })


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
    """One input whose observed behavior left its approved baseline."""

    semid: str
    kind: str
    scenario: Dict[str, Any]
    fields: Dict[str, Any]  # field -> {"expected": ..., "observed": ...}

    def summary(self) -> str:
        parts = ", ".join(
            f"{field}: {diff['expected']!r} -> {diff['observed']!r}"
            for field, diff in sorted(self.fields.items())
        )
        where = "/".join(
            str(value) for key, value in sorted(self.scenario.items())
            if key in ("machine", "program", "experiment")
        )
        return (f"[{semid_mod.short_id(self.semid)}] {self.kind} "
                f"{where}: {parts}")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "semid": self.semid,
            "kind": self.kind,
            "scenario": self.scenario,
            "fields": self.fields,
        }


class BaselineDivergenceError(ReproError):
    """Observed behavior diverged from an approved baseline record."""

    def __init__(self, divergence: BaselineDivergence):
        self.divergence = divergence
        super().__init__(
            f"behavior diverged from baseline: {divergence.summary()} "
            f"— if this change is intentional, run "
            f"`repro baseline capture` then "
            f"`repro baseline promote {semid_mod.short_id(divergence.semid)}`"
        )


# ---------------------------------------------------------------------------
# The firewall engine.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class FirewallStats:
    captured: int = 0     # new candidate records created
    recaptured: int = 0   # divergent observations parked as candidates
    unchanged: int = 0    # capture matched the stored behavior
    reconverged: int = 0  # pending candidate cleared by a matching run
    pending: int = 0      # divergence already parked, still pending
    verified: int = 0     # verify matched the stored behavior
    divergent: int = 0    # verify mismatched the stored behavior
    unseen: int = 0       # no record for this input (ignored)
    retired: int = 0      # record retired, skipped

    @property
    def observed(self) -> int:
        return (self.captured + self.recaptured + self.unchanged
                + self.reconverged + self.pending + self.verified
                + self.divergent + self.unseen + self.retired)

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class BaselineFirewall:
    """Observes simulation behavior and captures/verifies baselines."""

    def __init__(self, store: Optional[BaselineStore] = None, *,
                 mode: str = MODE_VERIFY, strict: bool = True,
                 note: str = ""):
        if mode not in (MODE_CAPTURE, MODE_VERIFY):
            raise ReproError(f"bad firewall mode {mode!r}")
        self.store = store if store is not None else BaselineStore()
        self.mode = mode
        self.strict = strict
        self.note = note
        self.stats = FirewallStats()
        self.divergences: List[BaselineDivergence] = []

    # -- observation entry points -------------------------------------

    def observe_point(self, config: Any, program: Any,
                      max_instructions: int,
                      result: CoreResult) -> str:
        semid = result_key(config, program, max_instructions)
        scenario = {
            "machine": config.name,
            "program": program.name,
            "max_instructions": max_instructions,
        }
        return self._observe(semid, "point", scenario,
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
        if self.mode == MODE_CAPTURE:
            return self._capture(semid, kind, scenario, behavior)
        return self._verify(semid, kind, scenario, behavior)

    def _capture(self, semid: str, kind: str,
                 scenario: Dict[str, Any],
                 behavior: Dict[str, Any]) -> str:
        record = BaselineRecord(
            semid=semid, kind=kind, scenario=scenario,
            behavior=behavior, sim_schema=SIM_SCHEMA_VERSION,
        )
        action = self.store.capture(record, note=self.note)
        counter = {
            "captured": "captured",
            "recaptured": "recaptured",
            "unchanged": "unchanged",
            "reconverged": "reconverged",
            "pending": "pending",
            "retired": "retired",
        }[action]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if action in ("recaptured", "pending"):
            stored = self.store.get(semid)
            self.divergences.append(BaselineDivergence(
                semid=semid, kind=kind, scenario=scenario,
                fields={
                    field: {"expected": expected, "observed": observed}
                    for field, (expected, observed)
                    in stored.diff_behavior(behavior).items()
                },
            ))
        return action

    def _verify(self, semid: str, kind: str,
                scenario: Dict[str, Any],
                behavior: Dict[str, Any]) -> str:
        record = self.store.load(semid)
        if record is None:
            self.stats.unseen += 1
            return "unseen"
        if record.status == STATUS_RETIRED:
            self.stats.retired += 1
            return "retired"
        diff = record.diff_behavior(behavior)
        if not diff:
            self.stats.verified += 1
            return "verified"
        self.stats.divergent += 1
        divergence = BaselineDivergence(
            semid=semid, kind=kind, scenario=scenario,
            fields={
                field: {"expected": expected, "observed": observed}
                for field, (expected, observed) in diff.items()
            },
        )
        self.divergences.append(divergence)
        if self.strict:
            raise BaselineDivergenceError(divergence)
        return "divergent"

    # -- reporting ----------------------------------------------------

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
            "schema": 1,
            "mode": self.mode,
            "baseline_dir": str(self.store.root),
            "stats": self.stats.as_dict(),
            "divergences": [
                divergence.as_dict() for divergence in self.divergences
            ],
        }
