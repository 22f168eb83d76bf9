"""Event-based energy accounting.

Energy = Σ (event count × per-event weight) + leakage × cycles.

Event counts come from the statistics objects each core already attaches
to its :class:`~repro.baselines.core_base.CoreResult`; nothing is
re-simulated.  Weights are relative units, with the ratios that matter
encoded explicitly:

* CAM/broadcast structures (issue-queue wakeup, LSQ search, rename
  lookups) cost several times a plain RAM access — they are exactly the
  structures the paper calls "power-inefficient";
* SST's replacements are cheap RAM/flash-copy structures (a checkpoint
  is a flash copy amortised over the whole episode; DQ and store buffer
  are small RAMs with one CAM port on the SB);
* speculative work that gets *discarded* (failed episodes, scout) still
  costs its execution energy — SST's efficiency claim has to survive
  that accounting, and this model makes it pay honestly.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict

from repro.baselines.core_base import CoreResult


@dataclasses.dataclass(frozen=True)
class EnergyWeights:
    """Per-event energies (relative units) and per-cycle leakage."""

    # Common pipeline events.
    fetch_decode: float = 1.0  # per instruction entering the pipeline
    alu_op: float = 1.0
    branch_predictor: float = 0.4
    regfile_access: float = 0.3  # per operand read / result write

    # Memory system.
    l1_access: float = 2.0
    l2_access: float = 8.0
    dram_access: float = 80.0

    # Out-of-order structures (CAM / multiported, the expensive ones).
    rename_lookup: float = 2.5  # per dispatched instruction
    rob_entry: float = 1.5  # write + commit read
    iq_wakeup_select: float = 4.0  # broadcast across the window
    lsq_search: float = 3.5  # per memory instruction

    # SST structures (RAM-ish, the cheap replacements).
    checkpoint_take: float = 6.0  # flash copy, amortised per episode
    dq_entry: float = 1.0  # write at defer + read at replay
    sb_entry: float = 1.2  # insert + one CAM-limited lookup port
    na_bit_update: float = 0.1

    # Static power.
    leakage_per_cycle_inorder: float = 0.5
    leakage_per_cycle_sst: float = 0.7  # + checkpoints/DQ/SB arrays
    leakage_per_cycle_ooo: float = 1.6  # + rename/ROB/IQ/LSQ arrays


@dataclasses.dataclass
class EnergyBreakdown:
    """Total energy of one run, decomposed by source."""

    core_name: str
    program_name: str
    cycles: int
    instructions: int
    components: Dict[str, float]

    @property
    def total(self) -> float:
        return math.fsum(self.components.values())

    @property
    def energy_per_instruction(self) -> float:
        return self.total / self.instructions if self.instructions else 0.0

    @property
    def energy_delay_squared(self) -> float:
        """ED² — the standard voltage-independent efficiency metric."""
        return self.total * self.cycles * self.cycles


def _common_components(result: CoreResult, weights: EnergyWeights,
                       executed: int) -> Dict[str, float]:
    hierarchy = result.extra["hierarchy"]
    l1 = result.extra["l1d"]
    l2 = result.extra["l2"]
    branch = result.extra["branch"]
    predictions = branch.cond_predictions + branch.indirect_predictions
    return {
        "pipeline": executed * (weights.fetch_decode
                                + weights.alu_op
                                + 3 * weights.regfile_access),
        "branch_predictor": predictions * weights.branch_predictor,
        "l1": l1.accesses * weights.l1_access,
        "l2": l2.accesses * weights.l2_access,
        "dram": hierarchy.demand_dram * weights.dram_access,
    }


def estimate_energy(result: CoreResult,
                    weights: EnergyWeights = EnergyWeights(),
                    ) -> EnergyBreakdown:
    """Energy of one finished run, dispatching on the core type."""
    if "sst" in result.extra:
        components = _sst_components(result, weights)
        leakage = weights.leakage_per_cycle_sst
    elif "ooo" in result.extra:
        components = _ooo_components(result, weights)
        leakage = weights.leakage_per_cycle_ooo
    else:
        components = _common_components(result, weights,
                                        executed=result.instructions)
        leakage = weights.leakage_per_cycle_inorder
    components["leakage"] = result.cycles * leakage
    return EnergyBreakdown(
        core_name=result.core_name,
        program_name=result.program_name,
        cycles=result.cycles,
        instructions=result.instructions,
        components=components,
    )


def _ooo_components(result: CoreResult,
                    weights: EnergyWeights) -> Dict[str, float]:
    ooo = result.extra["ooo"]
    executed = ooo.dispatched
    components = _common_components(result, weights, executed=executed)
    l1 = result.extra["l1d"]
    components["rename"] = executed * weights.rename_lookup
    components["rob"] = executed * weights.rob_entry
    components["issue_queue"] = executed * weights.iq_wakeup_select
    components["lsq"] = l1.accesses * weights.lsq_search
    return components


def _sst_components(result: CoreResult,
                    weights: EnergyWeights) -> Dict[str, float]:
    stats = result.extra["sst"]
    # Every issued instruction costs pipeline energy, including work
    # that is later discarded by a rollback or scout session.
    executed = (stats.normal_insts + stats.ahead_insts
                + stats.replay_insts)
    components = _common_components(result, weights, executed=executed)
    checkpoints = result.extra["checkpoints"]
    sb = result.extra["sb"]
    components["checkpoints"] = checkpoints.taken * weights.checkpoint_take
    components["deferred_queue"] = (
        (stats.deferred + stats.replay_insts) * weights.dq_entry
    )
    components["store_buffer"] = (
        (sb.appends + sb.forwards) * weights.sb_entry
    )
    components["na_bits"] = stats.deferred * weights.na_bit_update
    return components
