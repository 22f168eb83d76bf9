"""The in-order baseline: the SST pipeline with no checkpoint.

An in-order core issues in program order, up to ``width`` instructions
per cycle, each at the first cycle at which its register operands are
ready (stall-on-use).  Loads get their latency from the memory
hierarchy; stores retire into a store buffer and do not stall the
pipeline, and a mispredicted branch redirects the front end after the
configured penalty.  That is :class:`~repro.core.sst_core.SSTCore`'s
normal mode, and an SST core with no checkpoint never leaves it: in
ROCK both strands share one simple in-order pipeline.  So this core is
that configuration, an :class:`~repro.config.SSTConfig` with
``checkpoints=0`` (the default here; a config with a checkpoint is
refused), and every cycle SST saves over it comes from speculation
alone.  It adds only its own ``run``, which the benchmark times as the
in-order layer.

Its result carries the branch and hierarchy statistics, the perf
counters (``extra["perf"]``) and the CPI stack (``extra["cpi_stack"]``:
the cycles the clock jumped, by cause, plus ``busy``, summing to the
cycle count), and no speculation statistics.
"""

from __future__ import annotations

from repro.baselines.core_base import CoreResult
from repro.config import DEFAULT_MAX_INSTRUCTIONS, SSTConfig
from repro.core.sst_core import SSTCore
from repro.errors import ConfigError
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy


class InOrderCore(SSTCore):
    name = "inorder"

    def __init__(self, program: Program, hierarchy: MemoryHierarchy,
                 config: SSTConfig = SSTConfig(checkpoints=0)):
        # A config with a checkpoint is the SST core, not this one.
        if config.checkpoints != 0:
            raise ConfigError(
                f"an in-order core has no checkpoint, got "
                f"checkpoints={config.checkpoints}")
        super().__init__(program, hierarchy, config)

    def run(self, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> CoreResult:
        # SSTCore.run's body, not a call to it: the benchmark's tracer
        # wraps each class's own ``run``, and times this one as the
        # in-order layer.
        self.advance(None, max_instructions)
        return self._finalize()
