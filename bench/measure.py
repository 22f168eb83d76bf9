"""Host-speed correction and sample statistics.

The benchmark's host is shared: its speed for pure Python drifts by
tens of percent between runs minutes apart, and swings by up to 2x
within seconds while other tenants run.  Every timed region is
therefore cut into segments of a fraction of a second at natural pauses
(between simulation points, between experiments, after result-cache
reads), with a short fixed probe loop between segments.  Each segment
is scaled by ``REF_PROBE_S / mean(probe before, probe after)``, which
expresses it in seconds of the reference host; the raw times are kept
beside the corrected ones.

The probe is the benchmark's own code, never the simulator's: a change
that speeds up the simulator must not speed up its yardstick.  It reads
random bytes of a 16 MiB buffer and updates a small dict.  The
simulator slows down under contention mostly where it waits on memory,
and on a shared 2-vCPU x86-64 container a probe with that working set
tracked its slowdowns better than interpreter-style loops with small
working sets (per-point spread after correction 8.6% against 10.3%).
"""

from __future__ import annotations

import array
import random
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

# Seconds one probe took on the reference host (2-vCPU x86-64 container,
# CPython 3.11).  Corrected times are in that host's seconds; changing
# this constant rescales every one of them.
REF_PROBE_S = 0.022

# Shortest segment between two probes; probes cost ~10% at this length.
MIN_SEGMENT_S = 0.25

# Fewest timed samples a run takes, however long they are.
MIN_SAMPLES = 5


class Probe:
    """The probe loop, timed on demand.  It owns its buffer, which stays
    resident for the life of the process: :data:`FOOTPRINT_MB`."""

    SIZE = 16 << 20
    STEPS = 85_000
    _INDEXES = 1 << 16

    def __init__(self) -> None:
        self._buffer = bytearray(range(256)) * (self.SIZE // 256)
        rng = random.Random(0)
        self._index = array.array(
            "q", (rng.randrange(self.SIZE) for _ in range(self._INDEXES)))

    def __call__(self) -> float:
        """Seconds the probe loop takes now."""
        buffer, index, mask = self._buffer, self._index, self._INDEXES - 1
        table: Dict[int, int] = {}
        started = time.perf_counter()
        for step in range(self.STEPS):
            offset = index[step & mask]
            table[offset & 4095] = buffer[offset]
        return time.perf_counter() - started


# Resident memory a Probe adds to its process, to take out of peak RSS.
FOOTPRINT_MB = (Probe.SIZE + 8 * Probe._INDEXES) / (1 << 20)


def corrected(raw_s: float, probe_before: float, probe_after: float) -> float:
    """``raw_s`` expressed in reference-host seconds."""
    return raw_s * REF_PROBE_S / ((probe_before + probe_after) / 2.0)


class ProbedTimer:
    """Times a region as segments separated by probes.

    Call :meth:`start`, then :meth:`pause` at every natural pause point
    (a probe runs there once the open segment is :data:`MIN_SEGMENT_S`
    long), then :meth:`stop`.  Time spent probing is in no segment, and
    :meth:`clock` leaves it out too, so a tracer timed by it sees none.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.raw_s = 0.0
        self.corrected_s = 0.0
        # (raw seconds, probe before, probe after) per segment
        self.segments: List[Tuple[float, float, float]] = []
        self._probing_s = 0.0
        self._probed = 0.0
        self._opened: Optional[float] = None

    def clock(self) -> float:
        """Host seconds, less the time spent probing so far."""
        return time.perf_counter() - self._probing_s

    def _run_probe(self) -> float:
        started = time.perf_counter()
        seconds = self.probe()
        self._probing_s += time.perf_counter() - started
        return seconds

    def start(self) -> None:
        self._probed = self._run_probe()
        self._opened = self.clock()

    def pause(self, force: bool = False) -> None:
        if self._opened is None:
            raise RuntimeError("pause() before start()")
        segment = self.clock() - self._opened
        if segment < MIN_SEGMENT_S and not force:
            return
        before, self._probed = self._probed, self._run_probe()
        self.segments.append((segment, before, self._probed))
        self.raw_s += segment
        self.corrected_s += corrected(segment, before, self._probed)
        self._opened = self.clock()

    def stop(self) -> Tuple[float, float]:
        """(raw seconds, corrected seconds) of the whole region."""
        self.pause(force=True)
        self._opened = None
        return self.raw_s, self.corrected_s


def another_sample(taken: int, elapsed_s: float, last_s: float,
                   seconds: float) -> bool:
    """Whether a run takes another sample: always until it has
    :data:`MIN_SAMPLES`, then while one more as long as the last still
    ends within ``seconds`` of measuring."""
    return taken < MIN_SAMPLES or elapsed_s + last_s <= seconds


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count (quartiles collapse to the value
    when there is only one sample)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        q1 = q3 = ordered[0]
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "n": len(ordered)}
