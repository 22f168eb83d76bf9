"""Quantum-interleaved multiprogrammed multicore simulation.

The scheduler repeatedly advances the core with the *smallest local
clock* by one time quantum, so accesses to the shared L2/DRAM arrive in
near-global time order: cross-core ordering skew is bounded by the
quantum (the hierarchy's timing contract tolerates bounded skew; see
``tests/cmp`` for the single-core-equivalence check).

Throughput accounting follows the multiprogrammed convention: each
core's IPC is measured over its own completion time, and chip
throughput is the sum — the same metric the analytic model in
:mod:`repro.power.cmp` predicts, which experiment E17 cross-validates.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from typing import List, Optional, Sequence

from repro.baselines.core_base import CoreResult
from repro.cmp.shared import build_shared_hierarchies
from repro.config import DEFAULT_MAX_INSTRUCTIONS, HierarchyConfig, SSTConfig
from repro.core.sst_core import SSTCore
from repro.errors import ConfigError
from repro.isa.program import Program

DEFAULT_QUANTUM = 200


@dataclasses.dataclass
class MulticoreResult:
    """Outcome of one multiprogrammed run."""

    per_core: List[CoreResult]
    quantum: int
    # Scheduler observability: idle quanta the scheduler telescoped into
    # single clock jumps instead of advancing quantum by quantum.
    idle_quanta_skipped: int = 0

    @property
    def cores(self) -> int:
        return len(self.per_core)

    @property
    def makespan(self) -> int:
        return max(result.cycles for result in self.per_core)

    @property
    def aggregate_ipc(self) -> float:
        """Sum of per-core IPCs (the throughput metric)."""
        return math.fsum(result.ipc for result in self.per_core)

    @property
    def total_instructions(self) -> int:
        return sum(result.instructions for result in self.per_core)


class Multicore:
    """N SST-family cores over a shared L2/DRAM.

    The constructor validates the run's inputs and keeps them: they are
    all that :func:`~repro.sim.cache.multicore_key` reads.  Each
    :meth:`run` builds its own shared hierarchies and cores from them,
    so a run served from the result cache builds neither (no hierarchy,
    no decoded blocks, no image copy, no generated SST loop).
    """

    def __init__(self, hierarchy: HierarchyConfig,
                 core_configs: Sequence[SSTConfig],
                 programs: Sequence[Program],
                 quantum: int = DEFAULT_QUANTUM,
                 share_l1: bool = False):
        if not core_configs:
            raise ConfigError("need at least one core")
        if len(core_configs) != len(programs):
            raise ConfigError(
                f"{len(core_configs)} cores but {len(programs)} programs"
            )
        if quantum < 1:
            raise ConfigError("quantum must be >= 1")
        # The run's identity — the result-cache key and baseline
        # semantic ID over (hierarchy, cores, programs, quantum,
        # sharing) — and everything run() builds from.
        self.quantum = quantum
        self.hierarchy_config = hierarchy
        self.core_configs: Sequence[SSTConfig] = tuple(core_configs)
        self.programs: Sequence[Program] = tuple(programs)
        self.share_l1 = share_l1

    def run(self, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
            max_cycles: Optional[int] = None) -> MulticoreResult:
        """Build the cores over fresh shared hierarchies and interleave
        them to completion."""
        hierarchies = build_shared_hierarchies(
            self.hierarchy_config, len(self.core_configs),
            share_l1=self.share_l1,
        )
        cores = [
            SSTCore(program, private, config)
            for program, private, config
            in zip(self.programs, hierarchies, self.core_configs)
        ]
        # Min-heap of (local clock, index); ties broken by index so the
        # schedule is deterministic.
        heap = [(core.cycle, index) for index, core in enumerate(cores)]
        heapq.heapify(heap)
        results: List[Optional[CoreResult]] = [None] * len(cores)
        remaining = len(cores)
        quantum = self.quantum
        skipped_quanta = 0
        while remaining:
            clock, index = heapq.heappop(heap)
            core = cores[index]
            if max_cycles is not None and clock >= max_cycles:
                raise ConfigError(
                    f"core {index} exceeded max_cycles={max_cycles}"
                )
            until = clock + quantum
            if max_cycles is None:
                hint = core.next_event_hint
                if hint > until:
                    # The core cannot issue, commit, or touch the shared
                    # hierarchy before ``hint``: telescope the idle
                    # quanta into one clock jump.  The jump lands on the
                    # exact lockstep boundary the quantum-by-quantum
                    # schedule would reach (``clock + k*quantum``) and
                    # performs zero shared-hierarchy accesses, so the
                    # cross-core access interleaving — and therefore
                    # every simulated cycle count — is unchanged.
                    # (Disabled under ``max_cycles``, which is checked
                    # at every quantum boundary.)
                    skip = (hint - clock) // quantum
                    until = clock + skip * quantum
                    skipped_quanta += skip - 1
            halted = core.advance(until, max_instructions)
            if halted:
                result = core.finalize()
                result.core_name = f"core{index}-{core.config.mode_name}"
                results[index] = result
                remaining -= 1
            else:
                heapq.heappush(heap, (core.cycle, index))
        return MulticoreResult(per_core=list(results), quantum=self.quantum,
                               idle_quanta_skipped=skipped_quanta)
