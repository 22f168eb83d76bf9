"""Bandwidth-capped chip throughput.

The CMP argument: chip throughput = per-core IPC × core count, until
the cores' combined off-chip traffic saturates the memory channels.
Per-core bandwidth demand is *measured* from a single-core run (DRAM
line transfers per cycle), so miss-heavy workloads saturate early and
cache-resident ones scale linearly — no new simulation is needed.

This is the standard analytical multicore-scaling model (in the spirit
of the bandwidth-wall literature); coherence and shared-LLC contention
are out of scope (DESIGN.md).
"""

from __future__ import annotations

import dataclasses

from repro.baselines.core_base import CoreResult
from repro.config import LINE_BYTES


@dataclasses.dataclass(frozen=True)
class ChipPoint:
    """Throughput of one chip configuration on one workload."""

    core_name: str
    program_name: str
    cores: int
    per_core_ipc: float
    per_core_bw: float  # bytes per cycle, single-core demand
    chip_bw_limit: float  # bytes per cycle available off-chip

    @property
    def bandwidth_demand(self) -> float:
        return self.cores * self.per_core_bw

    @property
    def bandwidth_bound(self) -> bool:
        return self.bandwidth_demand > self.chip_bw_limit

    @property
    def throughput(self) -> float:
        """Aggregate IPC, capped by the off-chip channels."""
        unconstrained = self.cores * self.per_core_ipc
        if not self.bandwidth_bound or self.per_core_bw == 0:
            return unconstrained
        return unconstrained * self.chip_bw_limit / self.bandwidth_demand


def measured_bandwidth(result: CoreResult) -> float:
    """Single-core off-chip demand in bytes/cycle (reads + writebacks)."""
    hierarchy = result.extra["hierarchy"]
    l2 = result.extra["l2"]
    transfers = hierarchy.demand_dram + l2.writebacks
    if result.cycles == 0:
        return 0.0
    return transfers * LINE_BYTES / result.cycles


def chip_throughput(result: CoreResult, cores: int,
                    chip_bw_limit: float) -> ChipPoint:
    """Scale a single-core result to an N-core chip."""
    if cores < 1:
        raise ValueError("cores must be >= 1")
    if chip_bw_limit <= 0:
        raise ValueError("chip_bw_limit must be positive")
    return ChipPoint(
        core_name=result.core_name,
        program_name=result.program_name,
        cores=cores,
        per_core_ipc=result.ipc,
        per_core_bw=measured_bandwidth(result),
        chip_bw_limit=chip_bw_limit,
    )
