"""Structure-level core-area estimates.

Relative area units; an in-order scalar integer pipeline with its L1s
is the unit of account.  The intent is the paper's area argument:

* an OoO core pays for rename (multiported map + free list), a ROB, an
  issue-queue CAM, and an LSQ CAM — all of which grow superlinearly in
  ports/entries (modelled here as linear-in-entries with a CAM
  multiplier, conservative in the OoO core's favour);
* an SST core pays only for checkpoint register-file copies, the DQ
  RAM, and the store-buffer RAM+CAM — small adders on the in-order
  core, which is the SST config with no checkpoint and pays none of
  them.

``cores_per_die`` turns core area into the paper's CMP argument: how
many of each core fit in a fixed budget.
"""

from __future__ import annotations

import dataclasses

from repro.config import OoOConfig, SSTConfig

# Relative area of one architectural register (64 bits, modest ports).
_REG_AREA = 0.004


@dataclasses.dataclass(frozen=True)
class AreaWeights:
    """Areas in units of one scalar in-order core (pipeline + L1s)."""

    inorder_base: float = 1.0
    per_extra_width: float = 0.25  # second+ issue slot: ports, bypass

    # Out-of-order adders (per entry unless stated).
    rename_table: float = 0.15  # flat: map table + free list + ports
    rob_per_entry: float = 0.004
    iq_cam_per_entry: float = 0.012  # CAM-heavy
    lsq_cam_per_entry: float = 0.012

    # SST adders.
    checkpoint_per_copy: float = 32 * _REG_AREA  # one regfile flash copy
    dq_per_entry: float = 0.003  # RAM
    sb_per_entry: float = 0.006  # RAM + one CAM port


def ooo_area(config: OoOConfig,
             weights: AreaWeights = AreaWeights()) -> float:
    base = (weights.inorder_base
            + (config.width - 1) * weights.per_extra_width)
    return (base
            + weights.rename_table
            + config.rob_size * weights.rob_per_entry
            + config.iq_size * weights.iq_cam_per_entry
            + config.lsq_size * weights.lsq_cam_per_entry)


def sst_area(config: SSTConfig,
             weights: AreaWeights = AreaWeights()) -> float:
    """With no checkpoint this is the plain in-order core: it pays no
    checkpoint copy, DQ or store buffer."""
    base = (weights.inorder_base
            + (config.width - 1) * weights.per_extra_width)
    if config.checkpoints == 0:
        return base
    return (base
            + config.checkpoints * weights.checkpoint_per_copy
            + config.dq_size * weights.dq_per_entry
            + config.sb_size * weights.sb_per_entry)


def core_area(config, weights: AreaWeights = AreaWeights()) -> float:
    """Area of any core config (dispatch on type)."""
    if isinstance(config, OoOConfig):
        return ooo_area(config, weights)
    if isinstance(config, SSTConfig):
        return sst_area(config, weights)
    raise TypeError(f"not a core config: {type(config).__name__}")


def cores_per_die(config, die_budget: float,
                  weights: AreaWeights = AreaWeights()) -> int:
    """How many of these cores fit in ``die_budget`` area units."""
    if die_budget <= 0:
        raise ValueError("die_budget must be positive")
    return int(die_budget // core_area(config, weights))
