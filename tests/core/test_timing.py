"""Shared event-driven timing layer: PerfCounters."""

from repro.core.timing import PerfCounters


# ---------------------------------------------------------------------------
# PerfCounters — pure observability.
# ---------------------------------------------------------------------------


def test_skip_fraction():
    perf = PerfCounters(cycles_stepped=25, cycles_skipped=75)
    assert perf.skip_fraction == 0.75
    assert PerfCounters().skip_fraction == 0.0


def test_as_dict_round_trips_stalls():
    perf = PerfCounters(cycles_stepped=1, cycles_skipped=3,
                        fast_forwards=2, stall_cycles={"memory": 3})
    snapshot = perf.as_dict()
    assert snapshot["cycles_skipped"] == 3
    assert snapshot["skip_fraction"] == 0.75
    assert snapshot["stall_cycles"] == {"memory": 3}
    # The export is a copy, not a view.
    snapshot["stall_cycles"]["memory"] = 99
    assert perf.stall_cycles["memory"] == 3
