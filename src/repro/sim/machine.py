"""Machine assembly: config → (core + fresh memory hierarchy).

A machine's core is its :class:`~repro.config.MachineConfig`'s one core
config: an ``ooo`` config builds :class:`~repro.baselines.ooo.OoOCore`,
and an ``sst`` config builds :class:`~repro.core.SSTCore`, or
:class:`~repro.baselines.inorder.InOrderCore` (the same pipeline, timed
as the in-order layer) when it has no checkpoint.

A :class:`Machine` is cheap to construct and single-use per run — every
``run`` builds a fresh hierarchy and core so results never leak state
between experiments (cache warmth across runs would silently corrupt a
sweep).
"""

from __future__ import annotations

from repro.baselines.core_base import Core, CoreResult
from repro.baselines.inorder import InOrderCore
from repro.baselines.ooo import OoOCore
from repro.config import DEFAULT_MAX_INSTRUCTIONS, HierarchyConfig, MachineConfig
from repro.core import SSTCore
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy


def build_hierarchy(config: HierarchyConfig) -> MemoryHierarchy:
    """A fresh (cold) memory hierarchy."""
    return MemoryHierarchy(config)


def build_core(config: MachineConfig, program: Program,
               hierarchy: MemoryHierarchy) -> Core:
    """Instantiate the configured core bound to ``program``: the OoO
    core, or the SST pipeline, which is the in-order baseline when it
    has no checkpoint."""
    if config.ooo is not None:
        return OoOCore(program, hierarchy, config.ooo)
    assert config.sst is not None
    if config.sst.checkpoints == 0:
        return InOrderCore(program, hierarchy, config.sst)
    return SSTCore(program, hierarchy, config.sst)


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
