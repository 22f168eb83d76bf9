"""The assembled memory hierarchy one core talks to.

Layers: L1D (+ L1I) → shared L2 → DRAM, with an MSHR file per cache and
an optional prefetcher observing L2 misses.  The timing contract is
*latency at issue*: ``data_access`` updates tag/MSHR/DRAM state and
returns an :class:`~repro.memory.request.AccessResult` whose
``ready_cycle`` folds in hit latencies, MSHR queueing and DRAM
bandwidth.  Tags are filled at allocation time; accesses that arrive
while the fill is still in flight merge with it and see its completion
time, which is how overlapping misses (MLP) are modelled.

Instruction addresses live in their own region (``ICODE_BASE``) so
I-streams and D-streams compete in the shared L2 without aliasing.
"""

from __future__ import annotations

import dataclasses
from typing import Set

import dataclasses as _dataclasses

from repro.config import HierarchyConfig
from repro.memory.cache import Cache
from repro.memory.dram import DRAMModel
from repro.memory.mshr import MSHRFile
from repro.memory.prefetcher import make_prefetcher
from repro.memory.request import AccessResult, AccessType, HitLevel
from repro.memory.tlb import TLB

ICODE_BASE = 1 << 40
ICODE_BYTES_PER_INST = 4


@dataclasses.dataclass
class HierarchyStats:
    demand_accesses: int = 0
    demand_l1_hits: int = 0
    demand_l2_hits: int = 0
    demand_dram: int = 0
    demand_merges: int = 0
    prefetches_issued: int = 0
    ifetches: int = 0
    # Observability: accesses served entirely by the single-probe fast
    # path (L1 hit with no outstanding fill — no MSHR/prefetcher
    # bookkeeping touched).  Subsets of the hit counters above.
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
        self.prefetcher = make_prefetcher(
            config.l2_prefetcher, config.l2.line_bytes
        )
        self.stats = HierarchyStats()
        # Hot-path latency constants (one attribute hop instead of three
        # on every access).
        self._l1d_hit_latency = config.l1d.hit_latency
        self._l1i_hit_latency = config.l1i.hit_latency
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
                    access_type: AccessType = AccessType.LOAD,
                    pc: int = 0) -> AccessResult:
        """A demand load or store from the core at ``cycle``."""
        addr += self.addr_offset
        stats = self.stats
        stats.demand_accesses += 1
        tlb_missed = False
        if self.dtlb is not None and not self.dtlb.access(addr):
            tlb_missed = True
            cycle += self.config.tlb.walk_latency
        l1d = self.l1d
        line = l1d.line_addr(addr)

        if self.l1d_mshr.idle_at(cycle):
            # Fast hit path: nothing outstanding, so a tag hit cannot
            # merge with an in-flight fill — a single L1 probe settles
            # the access with no MSHR/prefetcher bookkeeping.
            if l1d.lookup(line):
                stats.demand_l1_hits += 1
                stats.fastpath_l1d += 1
                if access_type is AccessType.STORE:
                    l1d.mark_dirty(line)
                if tlb_missed:
                    return AccessResult(cycle + self._l1d_hit_latency,
                                        HitLevel.L1, tlb_miss=True)
                return AccessResult(cycle + self._l1d_hit_latency,
                                    HitLevel.L1)
            result = self._l1d_miss(line, cycle, pc)
        elif l1d.lookup(line):
            hit_ready = cycle + self._l1d_hit_latency
            pending = self.l1d_mshr.pending_ready(line, cycle)
            if pending is not None and pending > hit_ready:
                # The line's fill is still in flight: merge.
                stats.demand_merges += 1
                level = (HitLevel.MERGE_L2
                         if line in self._l1_pending_from_dram
                         else HitLevel.MERGE_L1)
                result = AccessResult(pending, level)
            else:
                stats.demand_l1_hits += 1
                result = AccessResult(hit_ready, HitLevel.L1)
        else:
            result = self._l1d_miss(line, cycle, pc)
            if access_type is AccessType.STORE and not l1d.contains(line):
                # The store merged with the in-flight fill of a line
                # whose tag was evicted before the fill landed:
                # write-allocate the line again so it can be dirtied.
                self._l1d_fill(line)

        if access_type is AccessType.STORE:
            self.l1d.mark_dirty(line)
        if tlb_missed:
            result = _dataclasses.replace(result, tlb_miss=True)
        return result

    def _l1d_miss(self, line: int, cycle: int, pc: int) -> AccessResult:
        start, merged = self.l1d_mshr.allocate(line, cycle)
        if merged:
            self.stats.demand_merges += 1
            level = (HitLevel.MERGE_L2
                     if line in self._l1_pending_from_dram
                     else HitLevel.MERGE_L1)
            return AccessResult(start, level)

        # Miss detected after the L1 lookup; go to L2.
        l2_probe = start + self.config.l1d.hit_latency
        ready, from_dram = self._l2_access(line, l2_probe, pc)
        self._l1d_fill(line)
        self.l1d_mshr.complete(line, ready)
        self._l1_pending_from_dram.discard(line)
        if from_dram:
            self._l1_pending_from_dram.add(line)
            self.stats.demand_dram += 1
            return AccessResult(ready, HitLevel.DRAM)
        self.stats.demand_l2_hits += 1
        return AccessResult(ready, HitLevel.L2)

    def _l1d_fill(self, line: int) -> None:
        """Install ``line`` in the L1D; a dirty victim is written back
        into the L2 (tag-only model)."""
        victim = self.l1d.fill(line)
        if victim is not None and self.l2.contains(victim):
            self.l2.mark_dirty(victim)

    def _l2_access(self, line: int, cycle: int, pc: int):
        """L2 lookup at ``cycle``; returns (ready_cycle, from_dram)."""
        l2_ready = cycle + self.config.l2.hit_latency
        if self.l2.lookup(line):
            pending = self.l2_mshr.pending_ready(line, cycle)
            if pending is not None and pending > l2_ready:
                return pending, True
            return l2_ready, False

        start, merged = self.l2_mshr.allocate(line, cycle)
        if merged:
            return start, True
        dram_ready = self.dram.access(start + self.config.l2.hit_latency)
        victim = self.l2.fill(line)
        if victim is not None:
            # Dirty L2 victim consumes a DRAM write slot.
            self.dram.access(dram_ready)
        self.l2_mshr.complete(line, dram_ready)
        for target in self.prefetcher.on_miss(pc, line):
            self._prefetch_fill(target, dram_ready)
        return dram_ready, True

    # ------------------------------------------------------------------
    # Prefetch path (scout loads and hardware prefetchers).
    # ------------------------------------------------------------------

    def prefetch(self, addr: int, cycle: int) -> AccessResult:
        """A core-initiated prefetch (PREFETCH op, scout-mode load).

        Fills the L1D and L2 like a demand access but is not counted as
        demand traffic; returns the ready time so scout mode can model
        the miss it is hiding.  Scout prefetches also warm the TLB —
        one of hardware scout's documented side benefits.
        """
        addr += self.addr_offset
        if self.dtlb is not None and not self.dtlb.access(addr):
            cycle += self.config.tlb.walk_latency
        line = self.l1d.line_addr(addr)
        if self.l1d.lookup(line, count=False):
            ready = cycle + self._l1d_hit_latency
            if not self.l1d_mshr.idle_at(cycle):
                pending = self.l1d_mshr.pending_ready(line, cycle)
                if pending is not None and pending > ready:
                    return AccessResult(pending, HitLevel.MERGE_L1)
            return AccessResult(ready, HitLevel.L1)
        self.stats.prefetches_issued += 1
        result = self._l1d_miss(line, cycle, pc=0)
        # Undo the demand-classified counting done by _l1d_miss.
        if result.level is HitLevel.DRAM:
            self.stats.demand_dram -= 1
        elif result.level is HitLevel.L2:
            self.stats.demand_l2_hits -= 1
        elif result.level in (HitLevel.MERGE_L1, HitLevel.MERGE_L2):
            self.stats.demand_merges -= 1
        return result

    def _prefetch_fill(self, line: int, cycle: int) -> None:
        """An L2 prefetcher suggestion: fill L2 only, pay DRAM bandwidth."""
        line = self.l2.line_addr(line)
        if self.l2.contains(line):
            return
        self.dram.access(cycle)
        victim = self.l2.fill(line, prefetched=True)
        if victim is not None:
            self.dram.access(cycle)

    # ------------------------------------------------------------------
    # Instruction fetch.
    # ------------------------------------------------------------------

    def ifetch(self, pc: int, cycle: int) -> AccessResult:
        """Fetch the instruction at index ``pc``."""
        stats = self.stats
        stats.ifetches += 1
        addr = ICODE_BASE + pc * ICODE_BYTES_PER_INST + self.addr_offset
        line = self.l1i.line_addr(addr)
        if self.l1i_mshr.idle_at(cycle):
            # Fast hit path (see data_access): one probe, no MSHR work.
            if self.l1i.lookup(line):
                stats.fastpath_l1i += 1
                return AccessResult(cycle + self._l1i_hit_latency,
                                    HitLevel.L1)
        elif self.l1i.lookup(line):
            hit_ready = cycle + self._l1i_hit_latency
            pending = self.l1i_mshr.pending_ready(line, cycle)
            if pending is not None and pending > hit_ready:
                return AccessResult(pending, HitLevel.MERGE_L1)
            return AccessResult(hit_ready, HitLevel.L1)
        start, merged = self.l1i_mshr.allocate(line, cycle)
        if merged:
            return AccessResult(start, HitLevel.MERGE_L1)
        probe = start + self.config.l1i.hit_latency
        ready, from_dram = self._l2_access(line, probe, pc)
        self.l1i.fill(line)
        self.l1i_mshr.complete(line, ready)
        level = HitLevel.DRAM if from_dram else HitLevel.L2
        return AccessResult(ready, level)

    # ------------------------------------------------------------------
    # Invariants.
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        self.l1d.check_invariants()
        self.l1i.check_invariants()
        self.l2.check_invariants()
