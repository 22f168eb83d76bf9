"""Shared event-driven timing layer: IssueClock and PerfCounters."""

from repro.core.timing import IssueClock, PerfCounters


# ---------------------------------------------------------------------------
# IssueClock — width-slotted issue with fast-forward accounting.
# ---------------------------------------------------------------------------


def test_issue_fills_width_slots_before_advancing():
    clock = IssueClock(width=2)
    assert clock.issue_at(0) == 0
    assert clock.issue_at(0) == 0  # second slot, same cycle
    assert clock.issue_at(0) == 1  # width exhausted -> next cycle
    assert clock.cycle == 1


def test_issue_in_future_jumps_and_resets_slots():
    clock = IssueClock(width=2)
    clock.issue_at(0)
    assert clock.issue_at(10) == 10  # fast-forward, fresh slot budget
    assert clock.issue_at(10) == 10
    assert clock.issue_at(10) == 11


def test_fast_forward_accounting():
    perf = PerfCounters()
    clock = IssueClock(width=1, perf=perf)
    clock.issue_at(0)    # stepped cycle 0 (advances to 1: width 1)
    clock.issue_at(5)    # skips 1..4
    assert perf.cycles_stepped == 2
    assert perf.cycles_skipped == 4
    assert perf.fast_forwards == 1
    assert perf.cycles_seen == 6


def test_same_cycle_steps_counted_once():
    perf = PerfCounters()
    clock = IssueClock(width=4, perf=perf)
    for _ in range(3):
        clock.issue_at(0)
    assert perf.cycles_stepped == 1


def test_advance_to_attributes_stall_cause():
    perf = PerfCounters()
    clock = IssueClock(width=2, perf=perf)
    clock.advance_to(7, "branch")
    assert clock.cycle == 7
    assert clock.slots == 0
    assert perf.stall_cycles == {"branch": 7}
    assert perf.fast_forwards == 1
    clock.advance_to(3, "branch")  # in the past: no-op
    assert clock.cycle == 7
    assert perf.stall_cycles == {"branch": 7}


def test_advance_to_discards_remaining_slots():
    clock = IssueClock(width=4)
    clock.issue_at(0)
    clock.advance_to(2)
    # A redirect restarts the full issue width at the new cycle.
    assert [clock.issue_at(0) for _ in range(4)] == [2, 2, 2, 2]


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
