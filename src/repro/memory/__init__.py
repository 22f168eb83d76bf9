"""Memory-system substrates: backing store, caches, MSHRs, DRAM, a data
TLB and the assembled hierarchy.

Timing model: *latency at issue*.  An access updates cache tag state
immediately and returns the cycle at which its data is available, which
folds in MSHR queueing and DRAM bandwidth.  This is the standard fast
approximation for execution-driven simulators and preserves the shapes
SST's evaluation depends on (miss costs, limited MLP, warm-cache reuse).

Every core calls :class:`MemoryHierarchy` on each load, store and
prefetch, and gets an immutable
:class:`~repro.memory.request.AccessResult` back.  An L1 hit is settled
in the method the core called; every L1 miss runs the one walk in
:meth:`MemoryHierarchy._miss`, which calls the cache, MSHR and DRAM
operations once per step.  The walk reads each structure through
``self`` on every call because :mod:`repro.cmp.shared` rebinds them
after construction to share them between cores.
"""

from repro.memory.sparse_memory import SparseMemory
from repro.memory.request import AccessType
from repro.memory.cache import Cache, CacheStats
from repro.memory.mshr import MSHRFile
from repro.memory.dram import DRAMModel
from repro.memory.hierarchy import MemoryHierarchy

__all__ = [
    "SparseMemory",
    "AccessType",
    "Cache",
    "CacheStats",
    "MSHRFile",
    "DRAMModel",
    "MemoryHierarchy",
]
