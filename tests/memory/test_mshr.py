"""MSHR semantics: merging, capacity stalls, expiry."""

from repro.memory.mshr import MSHRFile


def test_allocate_and_complete():
    mshr = MSHRFile(entries=2)
    start, merged = mshr.allocate(0x100, cycle=10)
    assert (start, merged) == (10, False)
    mshr.complete(0x100, ready_cycle=310)
    assert mshr.in_flight(20) == {0x100: 310}


def test_merge_returns_existing_completion():
    mshr = MSHRFile(entries=2)
    mshr.allocate(0x100, 0)
    mshr.complete(0x100, 300)
    start, merged = mshr.allocate(0x100, 50)
    assert merged and start == 300
    assert mshr.stats.merges == 1


def test_full_file_delays_new_miss():
    mshr = MSHRFile(entries=1)
    mshr.allocate(0x100, 0)
    mshr.complete(0x100, 300)
    start, merged = mshr.allocate(0x200, 10)
    assert not merged
    assert start == 300  # waited for the outstanding miss
    assert mshr.stats.full_stalls == 1
    assert mshr.stats.stall_cycles == 290


def test_entries_expire_when_complete():
    mshr = MSHRFile(entries=1)
    mshr.allocate(0x100, 0)
    mshr.complete(0x100, 100)
    assert len(mshr.in_flight(50)) == 1
    assert len(mshr.in_flight(100)) == 0
    start, merged = mshr.allocate(0x200, 150)
    assert (start, merged) == (150, False)


def test_pending_ready_none_after_expiry():
    mshr = MSHRFile(entries=2)
    mshr.allocate(0x100, 0)
    mshr.complete(0x100, 100)
    assert mshr.in_flight(99).get(0x100) == 100
    assert mshr.in_flight(100).get(0x100) is None


def test_peak_occupancy_tracked():
    mshr = MSHRFile(entries=4)
    for index in range(3):
        line = 0x100 * (index + 1)
        mshr.allocate(line, 0)
        mshr.complete(line, 500)
    assert mshr.stats.peak_occupancy == 3


def test_idle_at_probe():
    mshr = MSHRFile(entries=2)
    # An empty in-flight map is the hierarchy's "idle" fast-path probe.
    assert not mshr.in_flight(0)
    mshr.allocate(0x100, 0)
    mshr.complete(0x100, 100)
    assert mshr.in_flight(50)
    assert not mshr.in_flight(100)  # fill landed
    assert not mshr.in_flight(200)
