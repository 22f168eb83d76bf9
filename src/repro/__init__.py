"""repro — a reproduction of *Simultaneous Speculative Threading*
(Chaudhry et al., ISCA 2009): the SST/ROCK checkpoint-based two-strand
pipeline, its in-order and out-of-order comparators, the memory system
they run against, and the workloads + harness that regenerate the
paper's evaluation.

Quickstart::

    from repro import assemble, sst_machine, inorder_machine, simulate

    program = assemble('''
        movi r1, 0x100000
        ld   r2, 0(r1)       ; this will miss
        addi r3, r2, 1       ; dependent -> deferred
        halt
    ''')
    base = simulate(inorder_machine(), program)
    fast = simulate(sst_machine(), program)
    print(fast.speedup_over(base))
"""

from repro.config import (
    BranchPredictorConfig,
    CacheConfig,
    DeferTrigger,
    DRAMConfig,
    HierarchyConfig,
    MachineConfig,
    OoOConfig,
    PredictorKind,
    SSTConfig,
    TLBConfig,
    ea_machine,
    inorder_machine,
    ooo_machine,
    scout_machine,
    sst_machine,
)
from repro.errors import (
    AssemblyError,
    ConfigError,
    ExecutionError,
    ReproError,
    SimulatorInvariantError,
)
from repro.isa import Instruction, Op, Program, assemble, run_program
from repro.isa.builder import ProgramBuilder
from repro.baselines import CoreResult, InOrderCore, OoOCore
from repro.core import ExecMode, FailCause, ScoutCause, SSTCore
from repro.memory import MemoryHierarchy
from repro.cmp import Multicore, MulticoreResult, build_shared_hierarchies
from repro.power import (
    AreaWeights,
    EnergyBreakdown,
    EnergyWeights,
    chip_throughput,
    core_area,
    cores_per_die,
    estimate_energy,
)
from repro.sim import (
    Machine,
    ParallelRunner,
    ResultCache,
    SIM_SCHEMA_VERSION,
    SimTask,
    simulate,
    speedup_table,
    verify_against_golden,
)
from repro.stats import Table, geomean
from repro.workloads import (
    array_stream,
    branchy_reduce,
    btree_lookup,
    commercial_suite,
    compute_suite,
    full_suite,
    graph_bfs,
    hash_join,
    matrix_multiply,
    pointer_chase,
    scatter_update,
    store_stream,
)

__version__ = "1.0.0"

__all__ = [
    # configuration
    "BranchPredictorConfig", "CacheConfig", "DeferTrigger", "DRAMConfig",
    "HierarchyConfig", "MachineConfig", "OoOConfig", "PredictorKind",
    "SSTConfig", "TLBConfig",
    # machine presets
    "ea_machine", "inorder_machine", "ooo_machine", "scout_machine",
    "sst_machine",
    # errors
    "AssemblyError", "ConfigError", "ExecutionError", "ReproError",
    "SimulatorInvariantError",
    # ISA
    "Instruction", "Op", "Program", "ProgramBuilder", "assemble",
    "run_program",
    # cores
    "CoreResult", "InOrderCore", "OoOCore", "SSTCore", "ExecMode",
    "FailCause", "ScoutCause",
    # memory
    "MemoryHierarchy",
    # power / area / CMP
    "AreaWeights", "EnergyBreakdown", "EnergyWeights", "chip_throughput",
    "core_area", "cores_per_die", "estimate_energy",
    "Multicore", "MulticoreResult", "build_shared_hierarchies",
    # simulation
    "Machine", "ParallelRunner", "ResultCache", "SIM_SCHEMA_VERSION",
    "SimTask", "simulate", "speedup_table", "verify_against_golden",
    # stats
    "Table", "geomean",
    # workloads
    "array_stream", "branchy_reduce", "btree_lookup", "commercial_suite",
    "compute_suite", "full_suite", "graph_bfs", "hash_join",
    "matrix_multiply", "pointer_chase", "scatter_update", "store_stream",
    "__version__",
]
