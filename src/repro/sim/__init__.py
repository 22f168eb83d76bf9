"""Simulation driving: build a machine from a config, run programs,
verify against the golden model, sweep parameters, compare cores —
through one in-order batch runner and content-addressed result
caching."""

from repro.sim.cache import (
    ResultCache,
    ResultCacheStats,
    SIM_SCHEMA_VERSION,
    cache_from_env,
    result_key,
)
from repro.sim.compare import compare_machines, speedup_table
from repro.sim.machine import Machine, build_core, build_hierarchy
from repro.sim.parallel import (
    ParallelRunner,
    SimTask,
    SimTaskError,
    TaskOutcome,
    run_simulations,
)
from repro.sim.runner import simulate, verify_against_golden
from repro.sim.sweep import sweep, sweep_many

__all__ = [
    "build_core",
    "build_hierarchy",
    "cache_from_env",
    "compare_machines",
    "Machine",
    "ParallelRunner",
    "result_key",
    "ResultCache",
    "ResultCacheStats",
    "run_simulations",
    "SIM_SCHEMA_VERSION",
    "SimTask",
    "SimTaskError",
    "simulate",
    "speedup_table",
    "sweep",
    "sweep_many",
    "TaskOutcome",
    "verify_against_golden",
]
