"""NA bits + last-writer merge — the rename replacement."""

from repro.core.regstate import SpeculativeRegisters
from repro.isa.registers import REG_COUNT, ZERO_REG


def fresh(values=None):
    return SpeculativeRegisters(values or [0] * REG_COUNT)


def test_initialises_from_committed():
    spec = fresh([i for i in range(REG_COUNT)])
    assert spec.read(5) == 5
    assert not spec.is_na(5)


def test_zero_register_always_zero_and_available():
    spec = fresh()
    spec.write_available(ZERO_REG, 99, seq=1, ready_cycle=5)
    spec.write_na(ZERO_REG, producer_seq=2)
    assert spec.read(ZERO_REG) == 0
    assert not spec.is_na(ZERO_REG)


def test_na_marking_and_producer():
    spec = fresh()
    spec.write_na(3, producer_seq=7)
    assert spec.is_na(3)
    assert spec.producer_of(3) == 7


def test_available_write_clears_na():
    spec = fresh()
    spec.write_na(3, producer_seq=7)
    spec.write_available(3, 42, seq=9, ready_cycle=10)
    assert not spec.is_na(3)
    assert spec.read(3) == 42


def test_replayed_write_lands_when_youngest():
    spec = fresh()
    spec.write_na(3, producer_seq=7)
    assert spec.apply_replayed(3, 42, seq=7, ready_cycle=100) is True
    assert spec.read(3) == 42
    assert not spec.is_na(3)


def test_replayed_write_suppressed_by_younger_writer():
    """The NT/W-bit merge: a younger available write beats an older
    replayed one."""
    spec = fresh()
    spec.write_na(3, producer_seq=7)
    spec.write_available(3, 1000, seq=9, ready_cycle=5)  # younger overwrite
    assert spec.apply_replayed(3, 42, seq=7, ready_cycle=100) is False
    assert spec.read(3) == 1000


def test_replayed_write_suppressed_by_younger_na_writer():
    spec = fresh()
    spec.write_na(3, producer_seq=7)
    spec.write_na(3, producer_seq=11)  # younger deferred writer
    assert spec.apply_replayed(3, 42, seq=7, ready_cycle=100) is False
    assert spec.is_na(3)
    assert spec.producer_of(3) == 11


def test_snapshot_is_independent():
    spec = fresh()
    spec.write_available(2, 5, seq=1, ready_cycle=0)
    spec.write_na(3, producer_seq=4)
    snapshot = spec.snapshot()
    spec.write_available(2, 99, seq=2, ready_cycle=0)
    spec.write_available(3, 1, seq=5, ready_cycle=0)
    assert snapshot.values[2] == 5
    assert snapshot.na_producer == {3: 4}

