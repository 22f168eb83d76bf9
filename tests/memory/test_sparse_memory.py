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
    with pytest.raises(ExecutionError, match="misaligned"):
        memory.read(3)
    with pytest.raises(ExecutionError, match="misaligned"):
        memory.write(12, 1)


def test_out_of_range_address_raises():
    with pytest.raises(ExecutionError, match="out of range"):
        SparseMemory().read(1 << 64)


def test_starts_from_a_copy_of_the_image():
    image = MappingProxyType({0x100: 7, 0x108: 8})
    memory = SparseMemory(image)
    assert memory.read(0x100) == 7
    assert memory.read(0x108) == 8
    memory.write(0x100, 9)
    assert image[0x100] == 7


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
