"""Deferred queue: ordering, capacity, captured dataflow."""

import pytest

from repro.core.deferred_queue import DeferredQueue, DQEntry
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op


def entry(seq, **kwargs):
    return DQEntry(seq=seq, pc=0,
                   inst=Instruction(Op.ADD, rd=1, rs1=2, rs2=3), **kwargs)


def test_fifo_order():
    queue = DeferredQueue(4)
    queue.append(entry(1))
    queue.append(entry(2))
    assert queue.head().seq == 1
    queue.remove(queue.head())
    assert queue.head().seq == 2


def test_capacity_rejection_without_mutation():
    queue = DeferredQueue(1)
    assert queue.append(entry(1)) is True
    assert queue.append(entry(2)) is False
    assert len(queue) == 1
    assert queue.stats.rejected_full == 1


def test_seq_order_enforced():
    queue = DeferredQueue(4)
    queue.append(entry(5))
    with pytest.raises(ValueError):
        queue.append(entry(5))
    with pytest.raises(ValueError):
        queue.append(entry(3))


def test_occupancy_histogram_sampled_on_append():
    queue = DeferredQueue(8)
    for seq in range(1, 4):
        queue.append(entry(seq))
    assert queue.occupancy.count == 3
    assert queue.occupancy.max == 3


def test_clear_and_bool():
    queue = DeferredQueue(2)
    assert not queue
    queue.append(entry(1))
    assert queue
    queue.clear()
    assert not queue and queue.head() is None


def test_stats_replayed():
    queue = DeferredQueue(2)
    queue.append(entry(1))
    queue.remove(queue.head())
    assert queue.stats.deferred == 1
    assert queue.stats.replayed == 1
    assert queue.stats.replayed_out_of_order == 0


def test_remove_by_identity():
    queue = DeferredQueue(4)
    first, second, third = entry(1), entry(2), entry(3)
    for queued in (first, second, third):
        queue.append(queued)
    queue.remove(second)
    assert [e.seq for e in queue] == [1, 3]
    assert (queue.stats.replayed, queue.stats.replayed_out_of_order) == (1, 1)
    queue.remove(first)
    assert (queue.stats.replayed, queue.stats.replayed_out_of_order) == (2, 1)
    # Equal in every field to the queued entry 3, but not queued itself.
    stranger = entry(3)
    with pytest.raises(ValueError):
        queue.remove(stranger)
    assert list(queue) == [third]
    assert (queue.stats.replayed, queue.stats.replayed_out_of_order) == (2, 1)
