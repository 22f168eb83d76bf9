"""Microarchitectural sanitizer: unit checks per invariant, a seeded
store-buffer corruption caught mid-run, and the observationality
guarantee (identical cycles with the sanitizer on)."""

import os
from heapq import heappush
from unittest import mock

import pytest

from repro.analysis.sanitizer import (
    OoOSanitizer,
    SSTSanitizer,
    make_sanitizer,
    sanitize_enabled,
)
from repro.config import SSTConfig
from repro.core import SSTCore
from repro.errors import SanitizerError
from repro.isa.builder import ProgramBuilder
from repro.isa.interpreter import Interpreter
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.runner import verify_against_golden
from repro.workloads import scatter_update
from tests.conftest import small_hierarchy_config


def tiny_program():
    builder = ProgramBuilder("tiny")
    builder.movi(1, 5)
    builder.addi(2, 1, 3)
    builder.halt()
    return builder.build()


def spec_workload():
    # Plenty of speculative stores AND multi-entry commit drains under
    # the small hierarchy (store_stream's episodes all roll back here,
    # so its store buffer never drains).
    return scatter_update(table_words=1 << 10, updates=96,
                          alias_per_1024=64)


def make_core(program, sanitized):
    """Build an SSTCore with the sanitizer deterministically on or off,
    regardless of whether the suite itself runs under REPRO_SANITIZE.

    The core reads the flag at construction, which is also when an
    attached sanitizer selects the instrumented speculative loop, so
    the flag is scoped around the constructor (attaching a sanitizer
    afterwards would leave the plain loop's inlined deferrals
    unwatched)."""
    with mock.patch.dict(os.environ):
        if sanitized:
            os.environ["REPRO_SANITIZE"] = "1"
        else:
            os.environ.pop("REPRO_SANITIZE", None)
        core = SSTCore(program, MemoryHierarchy(small_hierarchy_config()),
                       SSTConfig())
    assert (core.sanitizer is not None) is sanitized
    return core


# ----------------------------------------------------------------------
# Enable gate.
# ----------------------------------------------------------------------


def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not sanitize_enabled()
    assert make_sanitizer("sst", "core", tiny_program()) is None


@pytest.mark.parametrize("value", ["1", "on", "true", "YES"])
def test_truthy_env_values(monkeypatch, value):
    monkeypatch.setenv("REPRO_SANITIZE", value)
    assert sanitize_enabled()
    assert isinstance(make_sanitizer("sst", "core", tiny_program()),
                      SSTSanitizer)
    assert isinstance(make_sanitizer("ooo", "core", tiny_program()),
                      OoOSanitizer)


# ----------------------------------------------------------------------
# Per-invariant units (fakes stand in for the core's structures).
# ----------------------------------------------------------------------


class _FakeEntry:
    def __init__(self, seq, pc=0, addr=0x10_0000, value=1, resolved=True):
        self.seq = seq
        self.pc = pc
        self.addr = addr
        self.value = value
        self.resolved = resolved


class _FakeFile(list):
    capacity = 2

    def oldest(self):
        return self[0]


class _FakeQueue(list):
    capacity = 4


class _Checkpoint:
    def __init__(self, start_seq):
        self.start_seq = start_seq


def test_defer_requires_live_checkpoint():
    sanitizer = SSTSanitizer("sst", tiny_program())
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.on_defer(_FakeEntry(seq=3), _FakeFile(), _FakeQueue(),
                           cycle=7)
    assert excinfo.value.invariant == "dq-live-checkpoint"
    assert sanitizer.violations == 1


def test_defer_rejects_seq_before_oldest_epoch():
    sanitizer = SSTSanitizer("sst", tiny_program())
    checkpoints = _FakeFile([_Checkpoint(start_seq=10)])
    with pytest.raises(SanitizerError):
        sanitizer.on_defer(_FakeEntry(seq=3), checkpoints, _FakeQueue(),
                           cycle=7)
    # In-epoch defer is fine.
    sanitizer.on_defer(_FakeEntry(seq=12), checkpoints,
                       _FakeQueue([None]), cycle=8)


def test_replay_outside_live_epoch():
    sanitizer = SSTSanitizer("sst", tiny_program())
    checkpoints = _FakeFile([_Checkpoint(start_seq=10)])
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.on_replay(_FakeEntry(seq=3), checkpoints, cycle=4)
    assert excinfo.value.invariant == "dq-live-checkpoint"


def test_issue_slots_never_go_backwards():
    sanitizer = SSTSanitizer("inorder", tiny_program())
    for slot in (0, 0, 3, 3, 7):
        sanitizer.on_issue(slot)
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.on_issue(6)
    assert excinfo.value.invariant == "issue-order"
    assert "issue slot 6 precedes older issue at 7" in str(excinfo.value)
    assert sanitizer.violations == 1


def test_occupancy_bounds():
    sanitizer = SSTSanitizer("sst", tiny_program())
    over_full = _FakeQueue([None] * 5)  # capacity 4
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.on_spec_store(over_full, cycle=1)
    assert excinfo.value.invariant == "occupancy"
    with pytest.raises(SanitizerError):
        sanitizer.on_checkpoint(_FakeFile([None] * 3), cycle=1)


def test_ooo_dispatch_waits_for_entry_release():
    sanitizer = OoOSanitizer("ooo", tiny_program())
    # Entries released at or before the dispatch cycle are free.
    sanitizer.on_dispatch(10, 10, 9, None)
    sanitizer.on_dispatch(10, 0, 3, 10)
    for releases in ((11, 0, None), (0, 11, None), (0, 0, 11)):
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.on_dispatch(10, *releases)
        assert excinfo.value.invariant == "occupancy"
        assert "before its release at 11" in str(excinfo.value)


def test_drain_rejects_unresolved_entry():
    sanitizer = SSTSanitizer("sst", tiny_program())
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.on_drain_begin(
            [_FakeEntry(seq=1, addr=None, value=None, resolved=False)],
            cycle=9,
        )
    assert excinfo.value.invariant == "sb-fifo-drain"


def test_drain_rejects_inverted_order():
    sanitizer = SSTSanitizer("sst", tiny_program())
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.on_drain_begin([_FakeEntry(seq=5), _FakeEntry(seq=2)],
                                 cycle=9)
    assert "inverted" in excinfo.value.detail


def test_store_containment_guard():
    class _Memory:
        def __init__(self):
            self.writes = []

        def write(self, addr, value):
            self.writes.append((addr, value))

    class _State:
        pass

    state = _State()
    state.memory = _Memory()
    sanitizer = SSTSanitizer("sst", tiny_program())
    sanitizer.attach_memory_guard(state)

    state.memory.write(8, 1)  # outside an episode: allowed
    sanitizer.on_episode_begin(0)
    with pytest.raises(SanitizerError) as excinfo:
        state.memory.write(16, 2)
    assert excinfo.value.invariant == "spec-store-containment"
    assert (16, 2) not in state.memory.writes  # blocked before the write

    sanitizer.on_drain_begin([], cycle=1)  # commit drain: allowed
    state.memory.write(24, 3)
    sanitizer.on_drain_end()
    sanitizer.on_episode_end(2)
    state.memory.write(32, 4)

    SSTSanitizer.detach_memory_guard(state)
    assert "write" not in state.memory.__dict__
    assert state.memory.writes == [(8, 1), (24, 3), (32, 4)]


def test_zero_register_check():
    sanitizer = SSTSanitizer("sst", tiny_program())
    regs = [0] * 16
    sanitizer.check_zero_register(regs)
    regs[0] = 7
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.check_zero_register(regs, cycle=3)
    assert excinfo.value.invariant == "zero-register"


def test_reconvergence_accepts_golden_state():
    program = tiny_program()
    golden = Interpreter(program)
    state = golden.run()
    sanitizer = SSTSanitizer("sst", program)
    sanitizer.check_reconvergence(golden.stats.instructions,
                                  state.regs, state.memory)
    assert sanitizer.violations == 0


def test_reconvergence_flags_diverged_register():
    program = tiny_program()
    golden = Interpreter(program)
    state = golden.run()
    wrong = list(state.regs)
    wrong[2] += 1
    sanitizer = SSTSanitizer("sst", program)
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.check_reconvergence(golden.stats.instructions,
                                      wrong, None)
    assert excinfo.value.invariant == "replay-reconvergence"
    assert "r2" in excinfo.value.detail


def test_reconvergence_flags_instruction_count_overrun():
    program = tiny_program()
    sanitizer = SSTSanitizer("sst", program)
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer.check_reconvergence(10_000, [0] * 16, None)
    assert "halts after" in excinfo.value.detail


def test_error_message_carries_context():
    sanitizer = SSTSanitizer("sst-core-3", tiny_program())
    with pytest.raises(SanitizerError) as excinfo:
        sanitizer._fail("occupancy", "DQ overflow", cycle=42,
                        strand="ahead")
    message = str(excinfo.value)
    assert "occupancy" in message
    assert "sst-core-3" in message
    assert "42" in message
    assert "ahead" in message


# ----------------------------------------------------------------------
# Seeded corruption on a real run.
# ----------------------------------------------------------------------


def test_seeded_sb_corruption_is_caught():
    """Invert the store buffer's drain order mid-run: the sanitizer must
    reject the drain before any corrupted store reaches memory."""
    program = spec_workload()
    core = make_core(program, sanitized=True)

    real_drain = core.sb.drain_below
    multi_entry_drains = 0

    def corrupted_drain(seq):
        nonlocal multi_entry_drains
        entries = real_drain(seq)
        if len(entries) > 1:
            multi_entry_drains += 1
        return list(reversed(entries))

    core.sb.drain_below = corrupted_drain  # drain_all routes here too

    with pytest.raises(SanitizerError) as excinfo:
        core.run()
    assert excinfo.value.invariant == "sb-fifo-drain"
    assert core.sanitizer.violations == 1
    # The corruption fired at the first drain big enough to show it.
    assert multi_entry_drains == 1


def test_unsanitized_core_misses_the_same_corruption():
    """Control: without the sanitizer the inverted drain commits
    silently (stores are to distinct addresses), which is exactly why
    the continuous check earns its keep."""
    program = spec_workload()
    core = make_core(program, sanitized=False)
    real_drain = core.sb.drain_below
    core.sb.drain_below = lambda seq: list(reversed(real_drain(seq)))
    result = core.run()  # no error raised
    assert result.instructions > 0


def test_stale_pending_heap_entry_is_reported():
    """The pending heap must hold exactly the outstanding producers: an
    entry that belongs to no producer makes its answers disagree with
    the producers' ready times, and the first query reports it."""
    program = spec_workload()
    core = make_core(program, sanitized=True)
    real_begin = core._begin_episode

    def begin_with_stale_entry(*args):
        real_begin(*args)
        heappush(core._pending_heap, (1 << 40, -1))

    core._begin_episode = begin_with_stale_entry
    with pytest.raises(SanitizerError) as excinfo:
        core.run()
    assert excinfo.value.invariant == "pending-heap"
    assert core.sanitizer.violations == 1


def test_replay_index_losing_an_entry_is_reported():
    """An entry deferred but never filed in the DQ index is one a scan
    of the queue would replay: the replay choice disagrees."""
    program = spec_workload()
    core = make_core(program, sanitized=True)
    core._enqueue_replay = lambda entry: 0
    with pytest.raises(SanitizerError) as excinfo:
        core.run()
    assert excinfo.value.invariant == "replay-choice"


# ----------------------------------------------------------------------
# Observationality: identical timing with the sanitizer riding along.
# ----------------------------------------------------------------------


def test_sanitizer_sees_every_deferral():
    """Every deferral of a sanitized run reaches ``on_defer``, including
    the plain ALU and load defers the un-instrumented loop inlines."""
    program = spec_workload()
    core = make_core(program, sanitized=True)
    real_on_defer = core.sanitizer.on_defer
    calls = 0

    def counting_on_defer(*args):
        nonlocal calls
        calls += 1
        real_on_defer(*args)

    core.sanitizer.on_defer = counting_on_defer
    deferred = core.run().extra["sst"].deferred
    assert deferred > 0
    assert calls == deferred


def test_sanitized_run_is_cycle_identical_and_clean():
    program = spec_workload()
    plain = make_core(program, sanitized=False).run()
    sanitized_core = make_core(program, sanitized=True)
    sanitized = sanitized_core.run()

    verify_against_golden(sanitized, program)
    assert sanitized.cycles == plain.cycles
    assert sanitized.instructions == plain.instructions
    assert sanitized_core.sanitizer.violations == 0
    # The guard detached at finalize, restoring the bound method.
    assert "write" not in sanitized_core.state.memory.__dict__
