"""Per-core hierarchies sharing an L2 and a DRAM channel.

Each core gets its own :class:`~repro.memory.hierarchy.MemoryHierarchy`
(private L1I/L1D/MSHRs/TLB) whose L2-side structures are aliased to one
shared set of objects.  Coherence is out of scope (DESIGN.md): the
cores run *independent programs* over disjoint heaps, so only capacity,
MSHR and bandwidth contention are architecturally meaningful — and
those are exactly what the shared objects provide.
"""

from __future__ import annotations

from typing import List

from repro.config import HierarchyConfig
from repro.errors import ConfigError
from repro.memory.hierarchy import MemoryHierarchy


def build_shared_hierarchies(config: HierarchyConfig, cores: int, *,
                             share_l1: bool = False,
                             ) -> List[MemoryHierarchy]:
    """``cores`` hierarchies with private L1s and one shared L2/DRAM.

    ``share_l1=True`` additionally shares the L1s and their MSHRs —
    the model of two *hardware threads on one core* (ROCK runs two
    strands per core, usable either as two application threads or as
    one thread's ahead+replay pair; see experiment E18).  Thread
    contexts on one core contend for the same cache, so no address
    displacement is applied between them in that mode.
    """
    if cores < 1:
        raise ConfigError("cores must be >= 1")
    hierarchies = [MemoryHierarchy(config) for _ in range(cores)]
    shared = hierarchies[0]
    for index, hierarchy in enumerate(hierarchies):
        # Displace each core's physical address space so private data
        # cannot falsely share lines in shared tag structures.  Thread
        # contexts sharing an L1 keep the displacement too: they run
        # *different programs* whose identical generator addresses are
        # logically distinct data.
        hierarchy.addr_offset = index << 44
        if hierarchy is not shared:
            hierarchy.l2 = shared.l2
            hierarchy.l2_mshr = shared.l2_mshr
            hierarchy.dram = shared.dram
            if share_l1:
                hierarchy.l1d = shared.l1d
                hierarchy.l1i = shared.l1i
                hierarchy.l1d_mshr = shared.l1d_mshr
                hierarchy.l1i_mshr = shared.l1i_mshr
                hierarchy.dtlb = shared.dtlb
    return hierarchies
