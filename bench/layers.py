"""The simulator's layers as the benchmark sees them from outside.

:data:`BOUNDARIES` names the public entry point wrapped for each layer;
:data:`MOVES` records, for every per-layer metric in ``BENCHMARK.json``,
which end-to-end metric it should move and on which workload; the rest
turns a tracer report and the simulated results into per-layer metrics.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple

from bench.trace import Boundary

SST = "sst-commercial"
COMPUTE = "baseline-compute"
SMOKE_COLD = "suite-smoke-cold"
FULL_WARM = "suite-full-warm"

_HOT_MEMORY = ("data_access", "prefetch", "ifetch")
_HOT_BRANCH = ("predict_cond", "resolve_cond", "resolve_deferred_cond",
               "predict_indirect", "resolve_indirect",
               "resolve_deferred_indirect", "push_return")

BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("core.sst", "repro.core.sst_core", "SSTCore.run", spans=True),
    Boundary("core.sst_dispatch", "repro.core.sst_dispatch",
             "compile_spec_loop", spans=True),
    Boundary("baselines.inorder", "repro.baselines.inorder",
             "InOrderCore.run", spans=True),
    Boundary("baselines.ooo", "repro.baselines.ooo.ooo_core", "OoOCore.run",
             spans=True),
    *(Boundary("memory", "repro.memory.hierarchy", f"MemoryHierarchy.{name}")
      for name in _HOT_MEMORY),
    *(Boundary("branch", "repro.branch.predictors", f"BranchUnit.{name}")
      for name in _HOT_BRANCH),
    Boundary("cmp", "repro.cmp.multicore", "Multicore.run", spans=True),
    Boundary("sim.cache.load", "repro.sim.cache", "ResultCache.load",
             spans=True),
    Boundary("sim.cache.store", "repro.sim.cache", "ResultCache.store",
             spans=True),
    Boundary("sim.parallel", "repro.sim.parallel",
             "ParallelRunner.run_outcomes", spans=True),
    Boundary("experiments", "repro.experiments.engine",
             "ExperimentEngine.run", spans=True),
    Boundary("experiments.write", "repro.experiments.results",
             "write_result_doc", spans=True),
    Boundary("analysis.proglint", "repro.analysis.proglint",
             "check_program"),
    Boundary("isa.blockcache", "repro.isa.blockcache", "get_block_program"),
)

CORE_LAYERS = ("core.sst", "baselines.inorder", "baselines.ooo")

# Layers reported as ``<layer>.self_s`` and ``<layer>.calls``.
TIMED_LAYERS = ("core.sst", "core.sst_dispatch", "baselines.inorder",
                "baselines.ooo", "memory", "branch", "cmp", "sim.parallel",
                "workloads", "analysis.proglint", "isa.blockcache")


def boundaries() -> Tuple[Boundary, ...]:
    """:data:`BOUNDARIES` plus every registered workload generator."""
    from repro.workloads.suite import WORKLOAD_FACTORIES

    generators = {(fn.__module__, fn.__qualname__)
                  for fn in WORKLOAD_FACTORIES.values()}
    return BOUNDARIES + tuple(
        Boundary("workloads", module, qualname, spans=True)
        for module, qualname in sorted(generators)
    )


def _on(metric: str, *workloads: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((metric, workload) for workload in workloads)


# Per-layer metric -> the (end-to-end metric, workload) pairs it should
# move.  Empty for the tracer's own bookkeeping.  On these single-threaded
# workloads a faster layer saves at most its self-time share.
MOVES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "core.sst.self_s": _on("wall_s", SST, SMOKE_COLD) + _on(
        "sim_insts_per_s", SST),
    "core.sst.calls": _on("wall_s", SST, SMOKE_COLD),
    "core.sst_dispatch.self_s": _on("wall_s", SMOKE_COLD) + _on(
        "setup_s", SST),
    "core.sst_dispatch.calls": _on("wall_s", SMOKE_COLD),
    "baselines.inorder.self_s": _on("wall_s", COMPUTE, SMOKE_COLD) + _on(
        "sim_insts_per_s", COMPUTE),
    "baselines.inorder.calls": _on("wall_s", COMPUTE, SMOKE_COLD),
    "baselines.ooo.self_s": _on("wall_s", COMPUTE, SMOKE_COLD) + _on(
        "sim_insts_per_s", COMPUTE),
    "baselines.ooo.calls": _on("wall_s", COMPUTE, SMOKE_COLD),
    "memory.self_s": _on("wall_s", SST, COMPUTE, SMOKE_COLD),
    "memory.calls": _on("wall_s", SST, COMPUTE, SMOKE_COLD),
    "branch.self_s": _on("wall_s", COMPUTE, SST),
    "branch.calls": _on("wall_s", COMPUTE, SST),
    "cmp.self_s": _on("wall_s", FULL_WARM, SMOKE_COLD),
    "cmp.calls": _on("wall_s", FULL_WARM, SMOKE_COLD),
    "sim.cache.load_self_s": _on("wall_s", FULL_WARM) + _on(
        "peak_rss_mb", FULL_WARM),
    "sim.cache.loads": _on("wall_s", FULL_WARM),
    "sim.cache.hit_ratio": _on("wall_s", FULL_WARM),
    "sim.cache.store_self_s": _on("wall_s", SMOKE_COLD),
    "sim.cache.stores": _on("wall_s", SMOKE_COLD),
    "sim.parallel.self_s": _on("wall_s", SMOKE_COLD, FULL_WARM),
    "sim.parallel.calls": _on("wall_s", SMOKE_COLD, FULL_WARM),
    "experiments.self_s": _on("wall_s", SMOKE_COLD, FULL_WARM),
    "experiments.calls": _on("wall_s", SMOKE_COLD, FULL_WARM),
    "experiments.write_s": _on("wall_s", SMOKE_COLD, FULL_WARM),
    "workloads.self_s": _on("setup_s", SST, COMPUTE) + _on(
        "wall_s", SMOKE_COLD, FULL_WARM),
    "workloads.calls": _on("setup_s", SST, COMPUTE) + _on(
        "wall_s", SMOKE_COLD, FULL_WARM),
    "analysis.proglint.self_s": _on("setup_s", SST, COMPUTE) + _on(
        "wall_s", SMOKE_COLD, FULL_WARM),
    "analysis.proglint.calls": _on("setup_s", SST, COMPUTE) + _on(
        "wall_s", SMOKE_COLD, FULL_WARM),
    "isa.blockcache.self_s": _on("setup_s", SST, COMPUTE) + _on(
        "wall_s", SMOKE_COLD),
    "isa.blockcache.calls": _on("setup_s", SST, COMPUTE) + _on(
        "wall_s", SMOKE_COLD),
    "other.self_s": (),
    "trace.wall_s": (),
    "trace.overhead": (),
    # Simulated counts: exact, identical on every run of one commit.  A
    # change meant only to speed up the simulator must leave them all
    # unchanged; host time moves with the simulated events they count.
    "sim.instructions": _on("sim_insts_per_s", SST, COMPUTE),
    "sim.cycles": _on("wall_s", SST, COMPUTE),
    "sim.skip_fraction": _on("wall_s", SST, COMPUTE),
    "memory.demand_accesses": _on("wall_s", SST, COMPUTE),
    "memory.l1d_fastpath_fraction": _on("wall_s", COMPUTE),
    "memory.dram_fraction": _on("wall_s", SST),
    "branch.cond_accuracy": _on("wall_s", COMPUTE),
    "core.sst.discarded_fraction": _on("wall_s", SST),
    "core.sst.episodes": _on("wall_s", SST),
}


def _ratio(numerator: float, denominator: float) -> float:
    """0 when nothing was observed (the layer was not exercised)."""
    return numerator / denominator if denominator else 0.0


class SimCounts:
    """Exact simulated counts summed over results and document points."""

    def __init__(self) -> None:
        self.instructions = 0
        self.cycles = 0
        self.cycles_stepped = 0
        self.cycles_skipped = 0
        self.demand_accesses = 0
        self.fastpath_l1d = 0
        self.demand_dram = 0
        self.cond_predictions = 0
        self.cond_mispredicts = 0
        self.discarded = 0
        self.committed_spec = 0
        self.episodes = 0

    def add_point(self, point: Mapping[str, Any]) -> None:
        """One result-document point (timing and perf counters only)."""
        self.instructions += point["instructions"]
        self.cycles += point["cycles"]
        perf = point.get("perf") or {}
        self.cycles_stepped += perf.get("cycles_stepped", 0)
        self.cycles_skipped += perf.get("cycles_skipped", 0)

    def add_result(self, result: Any) -> None:
        """One :class:`~repro.baselines.core_base.CoreResult`."""
        perf = result.extra.get("perf")
        self.add_point({
            "instructions": result.instructions, "cycles": result.cycles,
            "perf": perf.as_dict() if perf is not None else None,
        })
        self.add_model_stats(result)

    def add_model_stats(self, result: Any) -> None:
        """The modelled components' counters of one CoreResult."""
        extra = result.extra
        hierarchy = extra.get("hierarchy")
        if hierarchy is not None:
            self.demand_accesses += hierarchy.demand_accesses
            self.fastpath_l1d += hierarchy.fastpath_l1d
            self.demand_dram += hierarchy.demand_dram
        branch = extra.get("branch")
        if branch is not None:
            self.cond_predictions += branch.cond_predictions
            self.cond_mispredicts += branch.cond_mispredicts
        sst = extra.get("sst")
        if sst is not None:
            self.discarded += sst.discarded_insts
            self.committed_spec += sst.committed_spec_insts
            self.episodes += sst.episodes

    def metrics(self) -> Dict[str, float]:
        return {
            "sim.instructions": self.instructions,
            "sim.cycles": self.cycles,
            "sim.skip_fraction": _ratio(
                self.cycles_skipped,
                self.cycles_stepped + self.cycles_skipped),
            "memory.demand_accesses": self.demand_accesses,
            "memory.l1d_fastpath_fraction": _ratio(self.fastpath_l1d,
                                                   self.demand_accesses),
            "memory.dram_fraction": _ratio(self.demand_dram,
                                           self.demand_accesses),
            "branch.cond_accuracy": _ratio(
                self.cond_predictions - self.cond_mispredicts,
                self.cond_predictions),
            "core.sst.discarded_fraction": _ratio(
                self.discarded, self.discarded + self.committed_spec),
            "core.sst.episodes": self.episodes,
        }


class Observer:
    """``Tracer.on_return`` hook: counts result-cache hits and the
    modelled components' counters of every core run."""

    def __init__(self) -> None:
        self.cache_hits = 0
        self.counts = SimCounts()

    def __call__(self, layer: str, result: Any) -> None:
        if layer == "sim.cache.load":
            self.cache_hits += result is not None
        elif layer in CORE_LAYERS:
            self.counts.add_model_stats(result)


def layer_metrics(report: Mapping[str, Any], cache_hits: int,
                  scale: float) -> Dict[str, float]:
    """Per-layer host-time metrics from a tracer report.

    ``scale`` converts the traced run's host seconds into reference-host
    seconds (the calibration correction); it applies to every time, so
    the layer self times plus ``other.self_s`` still sum to
    ``trace.wall_s``.
    """
    layers = report["layers"]

    def layer(name: str) -> Dict[str, float]:
        return layers.get(name, {"calls": 0, "self_s": 0.0})

    metrics: Dict[str, float] = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}.self_s"] = layer(name)["self_s"] * scale
        metrics[f"{name}.calls"] = layer(name)["calls"]
    load, store = layer("sim.cache.load"), layer("sim.cache.store")
    metrics["sim.cache.load_self_s"] = load["self_s"] * scale
    metrics["sim.cache.loads"] = load["calls"]
    metrics["sim.cache.hit_ratio"] = _ratio(cache_hits, load["calls"])
    metrics["sim.cache.store_self_s"] = store["self_s"] * scale
    metrics["sim.cache.stores"] = store["calls"]
    metrics["experiments.self_s"] = layer("experiments")["self_s"] * scale
    metrics["experiments.calls"] = layer("experiments")["calls"]
    metrics["experiments.write_s"] = \
        layer("experiments.write")["self_s"] * scale
    metrics["other.self_s"] = report["other_self_s"] * scale
    metrics["trace.wall_s"] = report["wall_s"] * scale
    return metrics


def closure_error(report: Mapping[str, Any]) -> float:
    """|sum of layer self times + other - wall| / wall; by construction
    of the span stack this is rounding error only."""
    total = sum(entry["self_s"] for entry in report["layers"].values())
    total += report["other_self_s"]
    return abs(total - report["wall_s"]) / report["wall_s"]


def layer_table(report: Mapping[str, Any]) -> List[str]:
    """Human-readable (layer, parent) aggregate lines, by self time."""
    rows: Iterable[Mapping[str, Any]] = sorted(
        report["aggregates"], key=lambda row: -row["self_s"])
    wall = report["wall_s"]
    lines = [f"  {'layer':22s} {'called from':22s} {'calls':>9s} "
             f"{'self s':>8s} {'share':>6s}"]
    for row in rows:
        lines.append(
            f"  {row['layer']:22s} {row['parent']:22s} {row['calls']:9d} "
            f"{row['self_s']:8.3f} {row['self_s'] / wall:6.1%}")
    lines.append(f"  {'other':22s} {'':22s} {'':>9s} "
                 f"{report['other_self_s']:8.3f} "
                 f"{report['other_self_s'] / wall:6.1%}")
    return lines
