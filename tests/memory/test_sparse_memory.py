import pickle
from types import MappingProxyType

import pytest

from repro.errors import ExecutionError
from repro.memory.sparse_memory import SparseMemory


def test_unwritten_reads_zero():
    assert SparseMemory().read(0x1000) == 0


def test_write_read_roundtrip():
    memory = SparseMemory()
    memory.write(0x10, 42)
    assert memory.read(0x10) == 42


def test_values_masked_to_64_bits():
    memory = SparseMemory()
    memory.write(0, -1)
    assert memory.read(0) == 2**64 - 1
    memory.write(8, 1 << 64)
    assert memory.read(8) == 0


def test_misaligned_access_raises():
    memory = SparseMemory()
    for addr in (3, 12, (1 << 64) - 1, -3):
        with pytest.raises(ExecutionError, match="misaligned"):
            memory.read(addr)
        with pytest.raises(ExecutionError, match="misaligned"):
            memory.write(addr, 1)
    assert len(memory) == 0


def test_out_of_range_address_raises():
    memory = SparseMemory()
    for addr in (1 << 64, -8, -(1 << 64)):
        with pytest.raises(ExecutionError, match="out of range"):
            memory.read(addr)
        with pytest.raises(ExecutionError, match="out of range"):
            memory.write(addr, 1)
    assert len(memory) == 0


def test_range_edges_are_accessible():
    memory = SparseMemory()
    top = (1 << 64) - 8
    memory.write(top, 5)
    memory.write(0, 6)
    assert (memory.read(top), memory.read(0)) == (5, 6)


def test_starts_from_a_copy_of_the_image():
    image = MappingProxyType({0x100: 7, 0x108: 8})
    memory = SparseMemory(image)
    assert memory.read(0x100) == 7
    assert memory.read(0x108) == 8
    memory.write(0x100, 9)
    assert image[0x100] == 7


def test_changed_items_are_the_words_that_differ_from_the_image():
    image = MappingProxyType({0x100: 7, 0x108: 0, 0x110: 9})
    memory = SparseMemory(image)
    assert list(memory.changed_items()) == []
    memory.write(0x200, 0)  # added, though zero
    memory.write(0x108, 4)  # changed
    memory.write(0x110, 9)  # rewritten with its image value
    memory.write(0x100, 1)
    memory.write(0x100, 7)  # changed, then restored
    assert sorted(memory.changed_items()) == [(0x108, 4), (0x200, 0)]


def test_pickles_with_its_image():
    memory = SparseMemory(MappingProxyType({0x100: 7, 0x108: 0}))
    memory.write(0x108, 4)
    memory.write(0x200, 0)
    restored = pickle.loads(pickle.dumps(memory))
    assert restored.snapshot() == memory.snapshot()
    assert list(restored.changed_items()) == [(0x108, 4), (0x200, 0)]


def test_changed_items_without_an_image_are_every_word():
    memory = SparseMemory()
    memory.write(0x18, 0)
    memory.write(0x8, 3)
    assert list(memory.changed_items()) == [(0x18, 0), (0x8, 3)]


def test_equality_ignores_explicit_zeros():
    a, b = SparseMemory(), SparseMemory()
    a.write(0x20, 0)
    assert a == b
    a.write(0x20, 5)
    assert a != b


def test_snapshot_is_a_copy():
    memory = SparseMemory()
    memory.write(0, 1)
    snap = memory.snapshot()
    memory.write(0, 2)
    assert snap[0] == 1


def test_unhashable():
    with pytest.raises(TypeError):
        hash(SparseMemory())
