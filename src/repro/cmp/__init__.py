"""Chip-multiprocessor simulation.

ROCK is a CMP of SST cores; this package runs *multiprogrammed*
multicore simulations: N cores (any SST-family configuration — the
zero-checkpoint degenerate is the in-order core) with private L1s and
TLBs, sharing one L2 and one DRAM channel.

Cores are interleaved in bounded-skew time quanta via
:meth:`repro.core.sst_core.SSTCore.advance`, so shared-structure
contention (L2 capacity, L2 MSHRs, DRAM bandwidth) is simulated, not
modelled analytically — the analytic model in :mod:`repro.power.cmp`
can be validated against it (experiment E17).
"""

from repro.cmp.shared import build_shared_hierarchies
from repro.cmp.multicore import Multicore, MulticoreResult

__all__ = ["build_shared_hierarchies", "Multicore", "MulticoreResult"]
