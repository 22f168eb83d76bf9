"""Shared event-driven timing layer.

Every core in the library advances its clock by *jumping to the next
wake event* (operand ready, structural hazard release, memory fill)
instead of ticking ``cycle += 1`` through stalls.  A jump to a future
cycle is a *fast-forward*: the clock lands directly on the wake event
and the skipped span is recorded, never simulated.  Each core finds its
next wake event inline: a memory access returns the cycle its data is
ready (``ready_cycle``), and the generated SST speculative loop folds
its strands' ready cycles into one running ``wake_min`` per idle cycle.

:class:`PerfCounters` holds the host-observability counters of those
jumps (cycles actually stepped vs. fast-forwarded, stall attribution);
every :class:`~repro.baselines.core_base.CoreResult` carries them under
``extra["perf"]``, and every result-document point carries them too.

The counters are pure observability: they never feed back into timing,
so enabling them cannot perturb simulated cycle counts.
"""

from __future__ import annotations

import dataclasses
from typing import Dict


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
