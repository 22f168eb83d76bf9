"""The benchmark environment: machines, suites, scaling, execution.

This is the library home of what ``benchmarks/common.py`` used to
provide as module-level globals — the bench-scale memory hierarchy,
the paper's machine points, smoke-mode workload shrinking, and the
cached execution helpers — packaged as :class:`BenchEnv` so the smoke
flag, cache, instruction budget and baseline firewall are explicit
per-run state instead of import-time environment reads.

The *bench hierarchy* is deliberately smaller than a real ROCK-era
memory system so the "bench"-scale workloads (hundreds of KB of working
set) exercise the same regime the paper's commercial workloads did on
multi-MB caches: frequent L2 misses with room for memory-level
parallelism.  Absolute IPCs are therefore not comparable to silicon;
relative orderings are the reproduction target.

Run settings are constructor arguments:

* ``smoke`` — shrink every workload by :data:`SMOKE_DIVISOR` and use
  the tiny suite scale, so the full 19-experiment suite finishes in
  seconds (CI smoke mode; relative orderings at this scale are
  indicative only).  Default off.
* ``max_instructions`` — per-run instruction budget (runaway guard);
  default :data:`repro.config.DEFAULT_MAX_INSTRUCTIONS` (50M), the
  budget of every entry point and of every committed baseline record.
* ``cache`` — the result cache; by default ``REPRO_CACHE`` /
  ``REPRO_CACHE_DIR`` choose its gate and location (default on,
  ``benchmarks/.simcache/``).

Every simulation routed through the environment is also *recorded*:
``env.points`` accumulates one JSON-ready row per point (machine,
program, config fingerprint, cycles, instructions, IPC, perf counters,
wall seconds), which is how the engine assembles the machine-readable
result documents.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.baselines.core_base import CoreResult
from repro.cmp.multicore import Multicore, MulticoreResult
from repro.config import (
    DEFAULT_MAX_INSTRUCTIONS,
    CacheConfig,
    DRAMConfig,
    HierarchyConfig,
    MachineConfig,
    ea_machine,
    inorder_machine,
    ooo_machine,
    scout_machine,
    sst_machine,
)
from repro.isa.program import Program
from repro.regress.firewall import BaselineFirewall
from repro.sim.cache import ResultCache, cache_from_env, multicore_key
from repro.sim.parallel import ParallelRunner, SimTask
from repro.workloads import commercial_suite, compute_suite, full_suite

# Smoke mode shrinks hardcoded workload parameters by this divisor.
# A power of two preserves power-of-two-ness, which some generators
# (hash tables) require of their sizes.
SMOKE_DIVISOR = 16

_UNSET = object()


class BenchEnv:
    """One experiment run's machines, workloads, and execution engine."""

    def __init__(self, *, smoke: bool = False,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 cache: Any = _UNSET,
                 firewall: Optional[BaselineFirewall] = None):
        self.smoke = bool(smoke)
        self.max_instructions = int(max_instructions)
        self.cache: Optional[ResultCache] = (
            cache_from_env() if cache is _UNSET else cache
        )
        # The behavioral baseline firewall (repro.regress): every point
        # recorded below — including cache hits — is captured into or
        # verified against the governed baseline store.  None (the
        # default) observes nothing.
        self.firewall = firewall
        # One JSON-ready record per simulation point routed through
        # this environment (see _record / record_multicore).
        self.points: List[Dict[str, Any]] = []

    # -- scaling -------------------------------------------------------

    @property
    def scale(self) -> str:
        """Workload suite scale: ``tiny`` in smoke mode, else ``bench``."""
        return "tiny" if self.smoke else "bench"

    def scaled(self, value: int, floor: int = 1) -> int:
        """Shrink a hardcoded workload parameter in smoke mode."""
        if not self.smoke:
            return value
        return max(floor, value // SMOKE_DIVISOR)

    # -- workload suites ----------------------------------------------

    def full_suite(self) -> List[Program]:
        return full_suite(self.scale)

    def commercial_suite(self) -> List[Program]:
        return commercial_suite(self.scale)

    def compute_suite(self) -> List[Program]:
        return compute_suite(self.scale)

    # -- machine points -----------------------------------------------

    def hierarchy(self, latency: int = 300) -> HierarchyConfig:
        """The bench-scale memory hierarchy (see module docstring), with
        ``latency`` cycles of DRAM latency."""
        return HierarchyConfig(
            l1d=CacheConfig(size_bytes=16 * 1024, assoc=4, hit_latency=2,
                            mshr_entries=16),
            l1i=CacheConfig(size_bytes=16 * 1024, assoc=4, hit_latency=1,
                            mshr_entries=4),
            l2=CacheConfig(size_bytes=128 * 1024, assoc=8, hit_latency=20,
                           mshr_entries=32),
            dram=DRAMConfig(latency=latency, min_interval=2),
        )

    def paper_machines(
            self,
            hierarchy: Optional[HierarchyConfig] = None
    ) -> List[MachineConfig]:
        """The four design points of the paper's narrative."""
        hierarchy = hierarchy or self.hierarchy()
        return [
            inorder_machine(hierarchy),
            scout_machine(hierarchy),
            ea_machine(hierarchy),
            sst_machine(hierarchy),
        ]

    def ooo_comparators(
            self,
            hierarchy: Optional[HierarchyConfig] = None
    ) -> List[MachineConfig]:
        """The "larger and higher-powered" out-of-order design points."""
        hierarchy = hierarchy or self.hierarchy()
        return [
            ooo_machine(hierarchy, rob_size=32),
            ooo_machine(hierarchy, rob_size=64),
            ooo_machine(hierarchy, rob_size=128),
        ]

    # -- execution -----------------------------------------------------

    def run(self, config: MachineConfig, program: Program) -> CoreResult:
        """One benchmark point, through the result cache."""
        task = SimTask(config=config, program=program,
                       max_instructions=self.max_instructions)
        result = ParallelRunner(cache=self.cache).run([task])[0]
        self._record(task, result)
        return result

    def run_matrix(
            self, programs: List[Program], configs: List[MachineConfig]
    ) -> Dict[str, Dict[str, CoreResult]]:
        """program name -> machine name -> result.

        The full matrix is one :class:`ParallelRunner` batch: cached
        points are restored without simulating at all.
        """
        tasks = [
            SimTask(config=config, program=program,
                    max_instructions=self.max_instructions)
            for program in programs
            for config in configs
        ]
        results = ParallelRunner(cache=self.cache).run(tasks)
        matrix: Dict[str, Dict[str, CoreResult]] = {
            program.name: {} for program in programs
        }
        for task, result in zip(tasks, results):
            self._record(task, result)
            matrix[task.program.name][task.config.name] = result
        return matrix

    def run_multicore(self, multicore: Multicore, *,
                      machine: str, program: str) -> MulticoreResult:
        """One interleaved multiprogrammed run at this environment's
        instruction budget, through the result cache, and a record of
        its aggregate.

        The run is looked up under :func:`multicore_key` (its full input
        set, which is also its baseline semantic ID) before anything is
        simulated, and stored after a miss, under the same gates as a
        point.  On a hit every core's state is a ``CachedState``.
        """
        key = multicore_key(multicore, self.max_instructions)
        result = (self.cache.load(key, MulticoreResult)
                  if self.cache is not None else None)
        if result is None:
            result = multicore.run(self.max_instructions)
            if self.cache is not None:
                self.cache.store_or_warn(key, result,
                                         f"{machine}/{program}")
        self.points.append({
            "machine": machine,
            "program": program,
            "key": key,
            "cycles": result.makespan,
            "instructions": result.total_instructions,
            "ipc": round(result.aggregate_ipc, 6),
            "wall_seconds": None,
            "perf": {"idle_quanta_skipped": result.idle_quanta_skipped},
        })
        if self.firewall is not None:
            self.firewall.observe_multicore(
                multicore, result, machine=machine, program=program,
                max_instructions=self.max_instructions,
            )
        return result

    # -- recording -----------------------------------------------------

    def _record(self, task: SimTask, result: CoreResult) -> None:
        perf = result.extra.get("perf")
        self.points.append({
            "machine": task.config.name,
            "program": task.program.name,
            # The content hash addressing this point in the result
            # cache: a fingerprint of (config, program, budget).
            "key": task.key,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "ipc": round(result.ipc, 6),
            "wall_seconds": round(result.wall_seconds, 6),
            "perf": perf.as_dict() if perf is not None else None,
        })
        if self.firewall is not None:
            self.firewall.observe_point(task, result)
