"""Shared event-driven timing layer.

Every core in the library advances its clock by *jumping to the next
wake event* (operand ready, structural hazard release, memory fill)
instead of ticking ``cycle += 1`` through stalls.  This module holds the
pieces of that discipline that used to be re-implemented per core:

* :class:`IssueClock` — the width-slotted, program-order issue cursor
  used by the in-order pipeline and by the SST core's normal mode.  A
  claim at a future cycle is a *fast-forward*: the clock lands directly
  on the wake event and the skipped span is recorded, never simulated.
* :class:`PerfCounters` — lightweight host-observability counters
  (cycles actually stepped vs. fast-forwarded, stall attribution)
  surfaced on every :class:`~repro.baselines.core_base.CoreResult`
  under ``extra["perf"]`` and in every result-document point.

Each core finds its next wake event inline: a memory access returns
the cycle its data is ready (``ready_cycle``), and the generated SST
speculative loop folds its strands' ready cycles into one running
``wake_min`` per idle cycle.

The counters are pure observability: they never feed back into timing,
so enabling them cannot perturb simulated cycle counts.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional


@dataclasses.dataclass
class PerfCounters:
    """Host-side observability for one core run.

    ``cycles_stepped`` counts simulated cycles the model actually did
    work on; ``cycles_skipped`` counts idle cycles the event-driven
    clock jumped over (each jump is one ``fast_forwards`` event).  The
    two should roughly partition the run's total cycle count — a high
    skip fraction is the whole point of event-driven fast-forwarding.
    ``stall_cycles`` attributes the skipped spans to their cause
    (operand wait, memory, structural hazard, ...), per core model.
    """

    cycles_stepped: int = 0
    cycles_skipped: int = 0
    fast_forwards: int = 0
    stall_cycles: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def cycles_seen(self) -> int:
        return self.cycles_stepped + self.cycles_skipped

    @property
    def skip_fraction(self) -> float:
        """Fraction of observed cycles that were never simulated."""
        seen = self.cycles_seen
        return self.cycles_skipped / seen if seen else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "cycles_stepped": self.cycles_stepped,
            "cycles_skipped": self.cycles_skipped,
            "fast_forwards": self.fast_forwards,
            "skip_fraction": round(self.skip_fraction, 6),
            "stall_cycles": dict(self.stall_cycles),
        }


class IssueClock:
    """Width-slotted program-order issue cursor.

    ``issue_at(earliest)`` claims the next issue slot at or after
    ``earliest`` and returns the cycle it landed on; when ``earliest``
    is in the future the clock jumps there directly (no idle cycles are
    simulated).  ``advance_to`` models a full pipeline restart (branch
    redirect, drain): the clock moves forward and the current cycle's
    remaining slots are discarded.

    The instance is deliberately tiny and slot-addressed: the cores
    bind its methods into locals, so every operation is a handful of
    attribute reads on ``__slots__``.
    """

    __slots__ = ("cycle", "slots", "width", "perf", "_stepped_cycle")

    def __init__(self, width: int, perf: Optional[PerfCounters] = None,
                 cycle: int = 0):
        self.width = width
        self.cycle = cycle
        self.slots = 0
        self.perf = perf if perf is not None else PerfCounters()
        self._stepped_cycle = -1

    def issue_at(self, earliest: int) -> int:
        """Claim the next issue slot at or after ``earliest``."""
        cycle = self.cycle
        if earliest > cycle:
            perf = self.perf
            perf.cycles_skipped += earliest - cycle
            perf.fast_forwards += 1
            self.cycle = cycle = earliest
            self.slots = 0
        if cycle != self._stepped_cycle:
            self._stepped_cycle = cycle
            self.perf.cycles_stepped += 1
        self.slots += 1
        if self.slots >= self.width:
            self.cycle = cycle + 1
            self.slots = 0
        return cycle

    def advance_to(self, cycle: int, cause: Optional[str] = None) -> None:
        """Jump the clock forward (redirect/drain); no-op if in the past."""
        if cycle > self.cycle:
            perf = self.perf
            perf.cycles_skipped += cycle - self.cycle
            perf.fast_forwards += 1
            if cause is not None:
                stalls = perf.stall_cycles
                stalls[cause] = stalls.get(cause, 0) + (cycle - self.cycle)
            self.cycle = cycle
            self.slots = 0
