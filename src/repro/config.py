"""All machine configuration, as validated dataclasses.

Everything a simulation depends on is named here and nowhere else:
cache geometry, DRAM latency/bandwidth, branch-predictor choice,
functional-unit latencies, and the per-core structural parameters
(checkpoint count, deferred-queue depth, store-buffer depth, ROB/IQ/LSQ
sizes...).  There are two core configs: :class:`SSTConfig` describes
the one in-order pipeline, whose checkpoint count and scout flag make it
plain in-order, scout, execute-ahead or SST, and :class:`OoOConfig` the
out-of-order comparator; a :class:`MachineConfig` holds exactly one of
them.  The presets at the bottom mirror the machine points the paper
compares: a ROCK-like SST core, the same pipeline restricted to
execute-ahead / scout / plain in-order, and out-of-order cores of
increasing size ("larger and higher-powered" comparators).

A parameter that every machine sets to one value is a constant of the
*fixed parameters* block below rather than a config field: the
functional-unit latencies, the cache line size, the predictor's table,
history, BTB and RAS sizes, and the default instruction budget.  Only
the fields are hashed into a result key.

Every dataclass validates itself in ``__post_init__`` and raises
:class:`~repro.errors.ConfigError` on bad values, so a mistyped sweep
fails immediately instead of producing a silently wrong machine.
"""

from __future__ import annotations

import dataclasses
import enum
import os
from typing import Optional

from repro.errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


# ---------------------------------------------------------------------------
# Fixed parameters: one value on every machine, so not config fields.
# ---------------------------------------------------------------------------

# Functional-unit latencies in cycles, shared by every core.
ALU_LATENCY = 1
MUL_LATENCY = 6
DIV_LATENCY = 24

# The line size of every cache level.  One size everywhere is what the
# hierarchy needs: it tracks in-flight fills (MSHRs, the DRAM-filled
# set) by L1 line, so an L2 line spanning several L1 lines would serve
# the others as L2 hits before their data arrived.
LINE_BYTES = 64

# Branch unit: direction-table index bits (bimodal and gshare), gshare
# global-history bits, BTB entries and return-address-stack depth.
PREDICTOR_TABLE_BITS = 12
PREDICTOR_HISTORY_BITS = 10
BTB_ENTRIES = 512
RAS_ENTRIES = 8

# The per-run instruction budget (a runaway guard) every entry point
# defaults to, the golden interpreter's step limit included; every
# committed baseline record is keyed at it.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000


# ---------------------------------------------------------------------------
# Memory system.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    hit_latency: int = 1
    mshr_entries: int = 8

    def __post_init__(self) -> None:
        _require(self.assoc >= 1, "assoc must be >= 1")
        _require(self.size_bytes >= LINE_BYTES * self.assoc,
                 "cache smaller than one set")
        sets = self.size_bytes // (LINE_BYTES * self.assoc)
        _require(_is_pow2(sets),
                 f"number of sets must be a power of two, got {sets}")
        _require(self.hit_latency >= 0, "hit_latency must be >= 0")
        _require(self.mshr_entries >= 1, "mshr_entries must be >= 1")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (LINE_BYTES * self.assoc)


@dataclasses.dataclass(frozen=True)
class DRAMConfig:
    """Main memory: flat latency plus a bandwidth limit.

    ``min_interval`` is the minimum number of cycles between the starts
    of two DRAM accesses (a token-bucket bandwidth model); 0 disables
    the limit.
    """

    latency: int = 300
    min_interval: int = 4

    def __post_init__(self) -> None:
        _require(self.latency >= 1, "DRAM latency must be >= 1")
        _require(self.min_interval >= 0, "min_interval must be >= 0")


@dataclasses.dataclass(frozen=True)
class TLBConfig:
    """Data TLB: fully-associative translation cache with a fixed
    table-walk latency (see :mod:`repro.memory.tlb`)."""

    entries: int = 64
    page_bytes: int = 8192
    walk_latency: int = 120

    def __post_init__(self) -> None:
        _require(self.entries >= 1, "TLB entries must be >= 1")
        _require(self.page_bytes >= 64 and _is_pow2(self.page_bytes),
                 "page_bytes must be a power of two >= 64")
        _require(self.walk_latency >= 1, "walk_latency must be >= 1")


@dataclasses.dataclass(frozen=True)
class HierarchyConfig:
    """The full L1D/L1I/L2/DRAM stack one core sees."""

    l1d: CacheConfig = CacheConfig(size_bytes=32 * 1024, assoc=4,
                                   hit_latency=2, mshr_entries=8)
    l1i: CacheConfig = CacheConfig(size_bytes=32 * 1024, assoc=4,
                                   hit_latency=1, mshr_entries=4)
    l2: CacheConfig = CacheConfig(size_bytes=2 * 1024 * 1024, assoc=8,
                                  hit_latency=20, mshr_entries=16)
    dram: DRAMConfig = DRAMConfig()
    # Data TLB; None disables translation timing entirely.
    tlb: Optional[TLBConfig] = None


# ---------------------------------------------------------------------------
# Branch prediction.
# ---------------------------------------------------------------------------


class PredictorKind(enum.Enum):
    ALWAYS_NOT_TAKEN = "not_taken"
    BIMODAL = "bimodal"
    GSHARE = "gshare"


@dataclasses.dataclass(frozen=True)
class BranchPredictorConfig:
    kind: PredictorKind = PredictorKind.GSHARE
    mispredict_penalty: int = 8

    def __post_init__(self) -> None:
        _require(self.mispredict_penalty >= 0, "penalty must be >= 0")


# ---------------------------------------------------------------------------
# Cores.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class OoOConfig:
    """Classical out-of-order core: rename + ROB + IQ + LSQ.

    This is the paper's comparator.  ``width`` instructions are fetched,
    issued and committed per cycle, and the LSQ is conservative: a load
    waits for every older store's address.
    """

    width: int = 4
    rob_size: int = 128
    iq_size: int = 48
    lsq_size: int = 48
    predictor: BranchPredictorConfig = BranchPredictorConfig()

    def __post_init__(self) -> None:
        _require(self.width >= 1, "width must be >= 1")
        _require(self.rob_size >= 2, "rob_size must be >= 2")
        _require(self.iq_size >= 1, "iq_size must be >= 1")
        _require(self.lsq_size >= 1, "lsq_size must be >= 1")
        _require(self.iq_size <= self.rob_size, "iq_size cannot exceed rob_size")
        _require(self.lsq_size <= self.rob_size, "lsq_size cannot exceed rob_size")


class DeferTrigger(enum.Enum):
    """Which load events start speculation in the SST core."""

    L1_MISS = "l1_miss"  # defer on any L1D miss
    L2_MISS = "l2_miss"  # defer only on misses that go to DRAM


@dataclasses.dataclass(frozen=True)
class SSTConfig:
    """The SST/ROCK core (the paper's contribution).

    * ``checkpoints=0`` degenerates to the plain in-order pipeline: it
      is the in-order baseline's only configuration.
    * ``scout_only=True`` is hardware scout (run ahead purely for
      prefetch, always roll back); it takes exactly one checkpoint.
    * ``checkpoints=1`` is execute-ahead (EA): replay stalls the ahead
      strand.
    * ``checkpoints>=2`` is full SST: the deferred strand replays
      *simultaneously* with continued ahead execution.

    A full deferred queue or store buffer always degrades the episode to
    scout, as in ROCK.
    """

    width: int = 2
    checkpoints: int = 2
    dq_size: int = 64
    sb_size: int = 32
    defer_trigger: DeferTrigger = DeferTrigger.L1_MISS
    # Treat a data-TLB miss (table walk) as a deferrable event, like
    # ROCK does; only meaningful when the hierarchy models a TLB.
    defer_on_tlb_miss: bool = True
    scout_only: bool = False
    # Let loads speculatively bypass older unresolved (deferred) stores,
    # validating at replay; False defers such loads conservatively.
    bypass_unresolved_stores: bool = True
    predictor: BranchPredictorConfig = BranchPredictorConfig()

    def __post_init__(self) -> None:
        _require(1 <= self.width <= 8, "width out of range")
        _require(self.checkpoints >= 0, "checkpoints must be >= 0")
        _require(self.dq_size >= 1, "dq_size must be >= 1")
        _require(self.sb_size >= 1, "sb_size must be >= 1")
        if self.scout_only:
            _require(self.checkpoints == 1,
                     "scout takes exactly one checkpoint")

    @property
    def mode_name(self) -> str:
        """Human name of the degenerate configuration."""
        if self.checkpoints == 0:
            return "inorder"
        if self.scout_only:
            return "scout"
        if self.checkpoints == 1:
            return "execute-ahead"
        return "sst"


# ---------------------------------------------------------------------------
# Whole machine.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """One core + its memory hierarchy.

    Exactly one of ``sst`` and ``ooo`` is set.  An ``sst`` config with
    no checkpoint is the in-order baseline.  ``name`` is a display
    label: no simulation reads it, so no result key hashes it.
    """

    hierarchy: HierarchyConfig = HierarchyConfig()
    ooo: Optional[OoOConfig] = None
    sst: Optional[SSTConfig] = None
    name: str = ""

    def __post_init__(self) -> None:
        _require((self.sst is None) != (self.ooo is None),
                 "a machine needs exactly one of sst and ooo")
        if not self.name:
            object.__setattr__(self, "name", self.mode_name)

    @property
    def mode_name(self) -> str:
        """``"ooo"``, or the SST pipeline's degenerate configuration."""
        return "ooo" if self.sst is None else self.sst.mode_name


# ---------------------------------------------------------------------------
# Presets — the machine points the paper's evaluation compares.
# ---------------------------------------------------------------------------


def inorder_machine(hierarchy: HierarchyConfig = HierarchyConfig(),
                    width: int = 2) -> MachineConfig:
    """The simple in-order baseline (same pipeline as SST, no speculation)."""
    return MachineConfig(
        hierarchy=hierarchy,
        sst=SSTConfig(width=width, checkpoints=0),
        name=f"inorder-{width}w",
    )


def scout_machine(hierarchy: HierarchyConfig = HierarchyConfig(),
                  width: int = 2) -> MachineConfig:
    """Hardware scout: run-ahead prefetching only, always rolls back."""
    return MachineConfig(
        hierarchy=hierarchy,
        sst=SSTConfig(width=width, checkpoints=1, scout_only=True),
        name=f"scout-{width}w",
    )


def ea_machine(hierarchy: HierarchyConfig = HierarchyConfig(),
               width: int = 2, dq_size: int = 64) -> MachineConfig:
    """Execute-ahead: one checkpoint, replay stalls the ahead strand."""
    return MachineConfig(
        hierarchy=hierarchy,
        sst=SSTConfig(width=width, checkpoints=1, dq_size=dq_size),
        name=f"ea-{width}w",
    )


def sst_machine(hierarchy: HierarchyConfig = HierarchyConfig(),
                width: int = 2, checkpoints: int = 2,
                dq_size: int = 64, sb_size: int = 32) -> MachineConfig:
    """The ROCK-like SST core (the paper's design point)."""
    return MachineConfig(
        hierarchy=hierarchy,
        sst=SSTConfig(width=width, checkpoints=checkpoints,
                      dq_size=dq_size, sb_size=sb_size),
        name=f"sst-{width}w-{checkpoints}ckpt",
    )


def ooo_machine(hierarchy: HierarchyConfig = HierarchyConfig(),
                rob_size: int = 128, width: int = 4) -> MachineConfig:
    """An out-of-order comparator; scale ``rob_size`` for the
    32/64/128-entry design points the evaluation sweeps."""
    iq = max(8, rob_size // 3)
    lsq = max(8, rob_size // 3)
    return MachineConfig(
        hierarchy=hierarchy,
        ooo=OoOConfig(width=width, rob_size=rob_size, iq_size=iq,
                      lsq_size=lsq),
        name=f"ooo-{width}w-rob{rob_size}",
    )


# ---------------------------------------------------------------------------
# Runtime environment knobs.
#
# The simulator reads a small set of REPRO_* environment variables; the
# shared switch parser lives here so there is one documented home for
# them.  Every on/off switch parses through env_flag.  The full set
# (tests/config/test_env_registry.py greps this block against the actual
# ``os.environ.get("REPRO_...`` call sites, so keep it complete):
#
#   REPRO_CACHE             off ("0") disables the result cache
#   REPRO_CACHE_DIR         result-cache directory override
#   REPRO_SANITIZE          on ("1") attaches the invariant sanitizer
#                           (and the instrumented SST loop)
#   REPRO_TAINT             on ("1") attaches the speculative-leak
#                           taint tracker (and the e19 gadget gate)
#   REPRO_RESULTS_DIR       benchmark-results directory override
# ---------------------------------------------------------------------------

_FLAG_ON = ("1", "on", "true", "yes")
_FLAG_OFF = ("0", "off", "false", "no")


def env_flag(name: str, default: bool = True) -> bool:
    """A REPRO_* on/off switch; every switch parses through here.

    ``1``/``on``/``true``/``yes`` turn it on and ``0``/``off``/
    ``false``/``no`` turn it off, ignoring case and surrounding spaces.
    Unset, blank or any other value gives ``default``.
    """
    raw = (os.environ.get(name) or "").strip().lower()
    if raw in _FLAG_ON:
        return True
    if raw in _FLAG_OFF:
        return False
    return default

