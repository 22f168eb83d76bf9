"""Machine assembly: config → (core + fresh memory hierarchy).

A :class:`Machine` is cheap to construct and single-use per run — every
``run`` builds a fresh hierarchy and core so results never leak state
between experiments (cache warmth across runs would silently corrupt a
sweep).
"""

from __future__ import annotations

from repro.baselines.core_base import Core, CoreResult
from repro.baselines.inorder import InOrderCore
from repro.baselines.ooo import OoOCore
from repro.config import (
    DEFAULT_MAX_INSTRUCTIONS,
    CoreKind,
    HierarchyConfig,
    MachineConfig,
)
from repro.core import SSTCore
from repro.errors import ConfigError
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy


def build_hierarchy(config: HierarchyConfig) -> MemoryHierarchy:
    """A fresh (cold) memory hierarchy."""
    return MemoryHierarchy(config)


def build_core(config: MachineConfig, program: Program,
               hierarchy: MemoryHierarchy) -> Core:
    """Instantiate the configured core bound to ``program``."""
    if config.core_kind is CoreKind.INORDER:
        assert config.inorder is not None
        return InOrderCore(program, hierarchy, config.inorder)
    if config.core_kind is CoreKind.OOO:
        assert config.ooo is not None
        return OoOCore(program, hierarchy, config.ooo)
    if config.core_kind is CoreKind.SST:
        assert config.sst is not None
        return SSTCore(program, hierarchy, config.sst)
    raise ConfigError(f"unknown core kind {config.core_kind}")


class Machine:
    """One named machine configuration, runnable on any program."""

    def __init__(self, config: MachineConfig):
        self.config = config

    @property
    def name(self) -> str:
        return self.config.name

    def run(self, program: Program,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> CoreResult:
        hierarchy = build_hierarchy(self.config.hierarchy)
        core = build_core(self.config, program, hierarchy)
        # Every core times itself into ``result.wall_seconds``.
        result = core.run(max_instructions=max_instructions)
        # Re-label with the configured machine name so sweeps stay legible.
        result.core_name = self.name
        return result
