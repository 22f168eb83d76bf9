"""Speculative store buffer: forwarding, unresolved-store policies,
commit drain, conflicts."""

import pytest

from repro.core.store_buffer import StoreBuffer
from repro.errors import SimulatorInvariantError


def test_forward_youngest_older_entry():
    sb = StoreBuffer(8)
    sb.append_resolved(1, addr=0x100, value=10)
    sb.append_resolved(3, addr=0x100, value=30)
    sb.append_resolved(5, addr=0x200, value=50)
    assert sb.forward(0x100, before_seq=4) == (30, 3)
    assert sb.forward(0x100, before_seq=2) == (10, 1)
    assert sb.forward(0x100, before_seq=1) is None
    assert sb.forward(0x300, before_seq=10) is None
    assert sb.stats.forwards == 2


def test_capacity_rejection():
    sb = StoreBuffer(1)
    assert sb.append_resolved(1, 0x100, 1) is True
    assert sb.append_resolved(2, 0x108, 2) is False
    assert sb.stats.rejected_full == 1


def test_unresolved_blocks_same_address_always():
    sb = StoreBuffer(8)
    sb.append_unresolved(2, addr=0x100)  # value NA, address known
    assert sb.blocks_load(0x100, load_seq=5, conservative=False)
    assert sb.blocks_load(0x100, load_seq=5, conservative=True)
    # A different address never blocks when the address is known.
    assert not sb.blocks_load(0x200, 5, conservative=True)


def test_unknown_address_blocks_only_conservative():
    sb = StoreBuffer(8)
    sb.append_unresolved(2, addr=None)
    assert sb.blocks_load(0x100, 5, conservative=True)
    assert not sb.blocks_load(0x100, 5, conservative=False)


def test_older_loads_never_blocked():
    sb = StoreBuffer(8)
    sb.append_unresolved(6, addr=None)
    assert not sb.blocks_load(0x100, load_seq=3, conservative=True)


def test_resolve_fills_placeholder():
    sb = StoreBuffer(8)
    sb.append_unresolved(2, addr=None)
    assert sb.any_unresolved_below(3)
    assert not sb.any_unresolved_below(2)
    sb.resolve(2, addr=0x100, value=42)
    assert sb.forward(0x100, before_seq=5) == (42, 2)
    assert not sb.any_unresolved_below(10)


def test_resolve_unknown_seq_is_a_bug():
    sb = StoreBuffer(8)
    with pytest.raises(SimulatorInvariantError):
        sb.resolve(7, 0x100, 1)


def test_double_resolve_is_a_bug():
    sb = StoreBuffer(8)
    sb.append_unresolved(2, addr=None)
    sb.resolve(2, 0x100, 1)
    with pytest.raises(SimulatorInvariantError):
        sb.resolve(2, 0x100, 1)


def test_out_of_order_insert_keeps_seq_order():
    """A deferred store resolving late still sits at its seq position."""
    sb = StoreBuffer(8)
    sb.append_unresolved(2, addr=None)
    sb.append_resolved(5, 0x100, 50)
    sb.resolve(2, 0x100, 20)
    # A load at seq 4 must see the seq-2 store, not the seq-5 one.
    assert sb.forward(0x100, before_seq=4) == (20, 2)
    assert sb.forward(0x100, before_seq=6) == (50, 5)


def test_drain_below_returns_in_order_and_removes():
    sb = StoreBuffer(8)
    sb.append_resolved(1, 0x100, 1)
    sb.append_resolved(3, 0x108, 3)
    sb.append_resolved(5, 0x110, 5)
    drained = sb.drain_below(4)
    assert [(e.seq, e.addr) for e in drained] == [(1, 0x100), (3, 0x108)]
    assert len(sb) == 1
    assert sb.stats.drained == 2


def test_drain_unresolved_is_a_bug():
    sb = StoreBuffer(8)
    sb.append_unresolved(1, addr=None)
    with pytest.raises(SimulatorInvariantError):
        sb.drain_below(5)


def test_drain_all_and_clear():
    sb = StoreBuffer(8)
    sb.append_resolved(1, 0x100, 1)
    assert len(sb.drain_all()) == 1
    sb.append_resolved(2, 0x100, 2)
    sb.clear()
    assert len(sb) == 0
    assert sb.drain_all() == []


def test_duplicate_seq_is_a_bug():
    sb = StoreBuffer(8)
    sb.append_resolved(1, 0x100, 1)
    with pytest.raises(SimulatorInvariantError):
        sb.append_resolved(1, 0x108, 2)


def test_occupancy_histogram():
    sb = StoreBuffer(8)
    sb.append_resolved(1, 0x100, 1)
    sb.append_resolved(2, 0x108, 2)
    assert sb.occupancy.max == 2
