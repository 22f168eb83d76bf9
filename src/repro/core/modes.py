"""Execution modes and speculation outcomes of the SST core.

The mode names follow the paper's narrative: a core is *normal* until a
deferrable event checkpoints it into *execute-ahead*; when deferred data
returns it either replays *simultaneously* with continued ahead
execution (SST, needs a second checkpoint) or pauses the ahead strand to
replay (plain EA); resource exhaustion degrades speculation to *scout*
(prefetch only, always rolls back).
"""

from __future__ import annotations

import enum


class ExecMode(enum.Enum):
    """What the pipeline is doing right now."""

    NORMAL = "normal"  # non-speculative in-order execution
    EXECUTE_AHEAD = "execute_ahead"  # speculating past a miss, no replay yet
    SST = "sst"  # replay strand and ahead strand running simultaneously
    REPLAY_ONLY = "replay_only"  # ahead paused (no free checkpoint); replaying
    SCOUT = "scout"  # prefetch-only run-ahead; will roll back


class FailCause(enum.Enum):
    """Why a speculative episode was thrown away (rollback + re-execute)."""

    DEFERRED_BRANCH_MISPREDICT = "deferred_branch_mispredict"
    DEFERRED_JUMP_MISPREDICT = "deferred_jump_mispredict"
    MEMORY_ORDER_VIOLATION = "memory_order_violation"
    SPECULATIVE_FAULT = "speculative_fault"


class ScoutCause(enum.Enum):
    """Why the core degraded from EA/SST to scout mode."""

    DQ_FULL = "dq_full"
    SB_FULL = "sb_full"
    SCOUT_ONLY = "scout_only"  # the configuration never retires speculation
