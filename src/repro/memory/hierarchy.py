"""The assembled memory hierarchy one core talks to.

Layers: L1D (+ L1I) → shared L2 → DRAM, with an MSHR file per cache.
The timing contract is
*latency at issue*: ``data_access`` updates tag/MSHR/DRAM state and
returns an immutable :class:`~repro.memory.request.AccessResult` whose
``ready_cycle`` folds in hit latencies, MSHR queueing and DRAM
bandwidth.  Tags are filled at allocation time; accesses that arrive
while the fill is still in flight merge with it and see its completion
time, which is how overlapping misses (MLP) are modelled.

Each access aligns its address to a line once.  An L1 hit is settled
where it arrives (``data_access``, ``prefetch`` or ``ifetch``) with one
tag probe and one MSHR probe.  Every L1 miss — demand, prefetch or
instruction fetch — runs one private walk, :meth:`MemoryHierarchy._miss`:
L1 MSHR, L2 tags and MSHR, DRAM, L2 fill, L1 fill, L1 MSHR
completion.  The walk counts nothing in :class:`HierarchyStats`;
each caller counts from the level it returns, so a prefetch is never
counted as demand traffic.  The walk calls the one implementation of
each tag, MSHR and DRAM operation and keeps no copy of them.

Every structure is read through ``self`` on every call, never cached at
construction: :func:`repro.cmp.shared.build_shared_hierarchies` rebinds
``l2``, ``l2_mshr`` and ``dram`` (and with ``share_l1``
the L1s, their MSHR files and ``dtlb``) after ``__init__``.

Instruction addresses live in their own region (``ICODE_BASE``) so
I-streams and D-streams compete in the shared L2 without aliasing.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Set, Tuple

from repro.config import HierarchyConfig
from repro.memory.cache import Cache
from repro.memory.dram import DRAMModel
from repro.memory.mshr import MSHRFile
from repro.memory.request import AccessResult, AccessType, HitLevel
from repro.memory.tlb import TLB

ICODE_BASE = 1 << 40
ICODE_BYTES_PER_INST = 4

# Module-level names for the hot paths (one global load, no enum lookup).
_STORE = AccessType.STORE
_L1 = HitLevel.L1
_L2 = HitLevel.L2
_DRAM = HitLevel.DRAM
_MERGE_L1 = HitLevel.MERGE_L1
_MERGE_L2 = HitLevel.MERGE_L2


@dataclasses.dataclass
class HierarchyStats:
    demand_accesses: int = 0
    demand_l1_hits: int = 0
    demand_l2_hits: int = 0
    demand_dram: int = 0
    demand_merges: int = 0
    prefetches_issued: int = 0
    ifetches: int = 0
    # Observability: accesses served by the fast path (an L1 hit while
    # the L1's MSHR file is idle, so the hit cannot merge with a fill).
    # Subsets of the hit counters above.
    fastpath_l1d: int = 0
    fastpath_l1i: int = 0

    @property
    def dram_fraction(self) -> float:
        if not self.demand_accesses:
            return 0.0
        return self.demand_dram / self.demand_accesses

    @property
    def l1d_fastpath_fraction(self) -> float:
        """Fraction of demand accesses that took the L1 fast path."""
        if not self.demand_accesses:
            return 0.0
        return self.fastpath_l1d / self.demand_accesses


class MemoryHierarchy:
    """One core's view of the memory system."""

    def __init__(self, config: HierarchyConfig):
        self.config = config
        self.l1d = Cache(config.l1d, name="L1D")
        self.l1i = Cache(config.l1i, name="L1I")
        self.l2 = Cache(config.l2, name="L2")
        self.l1d_mshr = MSHRFile(config.l1d.mshr_entries, name="L1D-MSHR")
        self.l1i_mshr = MSHRFile(config.l1i.mshr_entries, name="L1I-MSHR")
        self.l2_mshr = MSHRFile(config.l2.mshr_entries, name="L2-MSHR")
        self.dram = DRAMModel(config.dram)
        self.dtlb = TLB(config.tlb) if config.tlb is not None else None
        self.stats = HierarchyStats()
        # Hot-path latency constants (one attribute hop instead of three
        # on every access).  Config values, so sharing cannot stale them.
        self._l1d_hit_latency = config.l1d.hit_latency
        self._l1i_hit_latency = config.l1i.hit_latency
        self._l2_hit_latency = config.l2.hit_latency
        # Lines whose in-flight L1D fill originated in DRAM (vs. L2),
        # so merged accesses can be classified for defer triggers.
        self._l1_pending_from_dram: Set[int] = set()
        # Multicore: per-core displacement applied to every address
        # before it reaches the (possibly shared) tag structures, so
        # that different cores' private data never falsely shares lines
        # in a shared L2.  Zero for single-core use.
        self.addr_offset = 0

    # ------------------------------------------------------------------
    # Demand data path.
    # ------------------------------------------------------------------

    def data_access(self, addr: int, cycle: int,
                    access_type: AccessType = AccessType.LOAD
                    ) -> AccessResult:
        """A demand load or store from the core at ``cycle``."""
        addr += self.addr_offset
        stats = self.stats
        stats.demand_accesses += 1
        tlb_miss = False
        dtlb = self.dtlb
        if dtlb is not None and not dtlb.access(addr):
            tlb_miss = True
            cycle += self.config.tlb.walk_latency
        l1d = self.l1d
        shift = l1d.line_shift
        line = addr >> shift << shift

        if l1d.lookup(line):
            ready = cycle + self._l1d_hit_latency
            in_flight = self.l1d_mshr.in_flight(cycle)
            if not in_flight:
                # Fast hit path: nothing outstanding, so the hit cannot
                # merge with an in-flight fill.
                stats.fastpath_l1d += 1
                stats.demand_l1_hits += 1
                level = _L1
            else:
                fill = in_flight.get(line)
                if fill is not None and fill > ready:
                    # The line's fill is still in flight: merge.
                    stats.demand_merges += 1
                    ready = fill
                    level = (_MERGE_L2 if line in self._l1_pending_from_dram
                             else _MERGE_L1)
                else:
                    stats.demand_l1_hits += 1
                    level = _L1
        else:
            ready, level = self._miss(l1d, self.l1d_mshr,
                                      self._l1_pending_from_dram,
                                      line, cycle)
            if level is _DRAM:
                stats.demand_dram += 1
            elif level is _L2:
                stats.demand_l2_hits += 1
            else:
                stats.demand_merges += 1
                if access_type is _STORE and not l1d.contains(line):
                    # The store merged with the in-flight fill of a line
                    # whose tag was evicted before the fill landed:
                    # write-allocate the line again so it can be dirtied.
                    l1d.fill(line, writeback=self.l2)

        if access_type is _STORE:
            l1d.mark_dirty(line)
        return AccessResult(ready, level, tlb_miss)

    def _miss(self, l1: Cache, l1_mshr: MSHRFile, from_dram: Optional[Set[int]],
              line: int, cycle: int) -> Tuple[int, HitLevel]:
        """The walk of one L1 miss of ``line`` at ``cycle``; returns
        ``(ready_cycle, level)`` and counts nothing in :attr:`stats`.

        ``l1`` and ``l1_mshr`` are the L1D or the L1I and its MSHR file.
        ``from_dram`` is the set of L1D lines whose in-flight fill came
        from DRAM, which classifies a merge as ``MERGE_L2``; it is None
        for the L1I, whose merges are all ``MERGE_L1``.
        """
        # 1. L1 MSHR: allocate an entry, or merge with the line's fill.
        start, merged = l1_mshr.allocate(line, cycle)
        if merged:
            if from_dram is not None and line in from_dram:
                return start, _MERGE_L2
            return start, _MERGE_L1

        # 2. The miss is detected after the L1 tag check; probe the L2.
        l2 = self.l2
        probe = start + l1.config.hit_latency
        if l2.lookup(line):
            ready = probe + self._l2_hit_latency
            fill = self.l2_mshr.in_flight(probe).get(line)
            if fill is not None and fill > ready:
                ready, level = fill, _DRAM
            else:
                level = _L2
        else:
            level = _DRAM
            l2_mshr = self.l2_mshr
            l2_start, merged = l2_mshr.allocate(line, probe)
            if merged:
                ready = l2_start
            else:
                # 3. DRAM, plus a write slot for a dirty L2 victim.
                dram = self.dram
                ready = dram.access(l2_start + self._l2_hit_latency)
                # 4. L2 fill.
                if l2.fill(line) is not None:
                    dram.access(ready)
                l2_mshr.complete(line, ready)

        # 5. L1 fill; a dirty victim marks its L2 line dirty.
        l1.fill(line, writeback=l2)
        # 6. The L1 fill completes at ``ready``; remember its source.
        l1_mshr.complete(line, ready)
        if from_dram is not None:
            if level is _DRAM:
                from_dram.add(line)
            else:
                from_dram.discard(line)
        return ready, level

    # ------------------------------------------------------------------
    # Prefetch path (PREFETCH ops and scout loads).
    # ------------------------------------------------------------------

    def prefetch(self, addr: int, cycle: int) -> AccessResult:
        """A core-initiated prefetch (PREFETCH op, scout-mode load).

        Fills the L1D and L2 like a demand access but is not counted as
        demand traffic; returns the ready time so scout mode can model
        the miss it is hiding.  Scout prefetches also warm the TLB —
        one of hardware scout's documented side benefits.
        """
        addr += self.addr_offset
        dtlb = self.dtlb
        if dtlb is not None and not dtlb.access(addr):
            cycle += self.config.tlb.walk_latency
        l1d = self.l1d
        shift = l1d.line_shift
        line = addr >> shift << shift
        l1d_mshr = self.l1d_mshr
        if l1d.lookup(line, count=False):
            ready = cycle + self._l1d_hit_latency
            fill = l1d_mshr.in_flight(cycle).get(line)
            if fill is not None and fill > ready:
                return AccessResult(fill, _MERGE_L1)
            return AccessResult(ready, _L1)
        self.stats.prefetches_issued += 1
        ready, level = self._miss(l1d, l1d_mshr, self._l1_pending_from_dram,
                                  line, cycle)
        return AccessResult(ready, level)

    # ------------------------------------------------------------------
    # Instruction fetch.
    # ------------------------------------------------------------------

    def ifetch(self, pc: int, cycle: int) -> AccessResult:
        """Fetch the instruction at index ``pc``.

        No core calls this: instruction-fetch timing is not modelled.
        It stays while ``bench/layers.py`` times it as part of the
        ``memory`` layer (ROADMAP item 9).
        """
        stats = self.stats
        stats.ifetches += 1
        l1i = self.l1i
        shift = l1i.line_shift
        line = ((ICODE_BASE + pc * ICODE_BYTES_PER_INST + self.addr_offset)
                >> shift << shift)
        l1i_mshr = self.l1i_mshr
        if l1i.lookup(line):
            ready = cycle + self._l1i_hit_latency
            in_flight = l1i_mshr.in_flight(cycle)
            if not in_flight:
                # Fast hit path (see data_access).
                stats.fastpath_l1i += 1
                return AccessResult(ready, _L1)
            fill = in_flight.get(line)
            if fill is not None and fill > ready:
                return AccessResult(fill, _MERGE_L1)
            return AccessResult(ready, _L1)
        ready, level = self._miss(l1i, l1i_mshr, None, line, cycle)
        return AccessResult(ready, level)

    # ------------------------------------------------------------------
    # Statistics and invariants.
    # ------------------------------------------------------------------

    def result_stats(self) -> Dict[str, Any]:
        """The statistics a core's result carries in
        ``CoreResult.extra``: the hierarchy's (``"hierarchy"``), the
        L1D's and the L2's, and the data TLB's (``"dtlb"``) when there
        is one."""
        stats: Dict[str, Any] = {
            "hierarchy": self.stats,
            "l1d": self.l1d.stats,
            "l2": self.l2.stats,
        }
        if self.dtlb is not None:
            stats["dtlb"] = self.dtlb.stats
        return stats

    def check_invariants(self) -> None:
        self.l1d.check_invariants()
        self.l1i.check_invariants()
        self.l2.check_invariants()
