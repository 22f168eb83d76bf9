"""Sparse 64-bit word-addressable backing store.

The architectural memory image of a simulated machine.  Addresses are
byte addresses but accesses are aligned 64-bit words (the ISA's only
access size); unwritten words read as zero.  A run's memory starts as a
copy of its program's validated data image
(:attr:`repro.isa.program.Program.image`).  Copy-on-demand snapshots
support speculative cores that need cheap rollback of *committed* state
(in practice the SST core never mutates committed memory speculatively,
but tests use snapshots for differential checks).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterator, NoReturn, Optional, Tuple

from repro.errors import ExecutionError

WORD_BYTES = 8
_MASK64 = 2**64 - 1


class SparseMemory:
    """Dictionary-backed word store with alignment checking.

    ``image``, when given, is a program's data image.  It was checked
    when the program was built, so it is copied without going through
    :meth:`write`.  No ``__slots__``: the sanitizer replaces
    :meth:`write` on the instance.
    """

    def __init__(
        self, image: Optional[MappingProxyType[int, int]] = None
    ) -> None:
        self._words: Dict[int, int] = {} if image is None else image.copy()

    @staticmethod
    def _check(addr: int) -> NoReturn:
        """Raise for ``addr``, which is misaligned or out of range."""
        if addr % WORD_BYTES != 0:
            raise ExecutionError(f"misaligned 8-byte access at {addr:#x}")
        raise ExecutionError(f"address out of range: {addr:#x}")

    # ``read`` and ``write`` test the address inline (``addr & 7`` is
    # ``addr % WORD_BYTES``) and call :meth:`_check` only to raise: every
    # load and store of every core comes through here, and a call per
    # access would cost an interpreter frame.

    def read(self, addr: int) -> int:
        """Read the 64-bit word at ``addr`` (zero if never written)."""
        if addr & 7 or not 0 <= addr <= _MASK64:
            self._check(addr)
        return self._words.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        """Write the 64-bit word at ``addr``."""
        if addr & 7 or not 0 <= addr <= _MASK64:
            self._check(addr)
        self._words[addr] = value & _MASK64

    def snapshot(self) -> Dict[int, int]:
        """A copy of all non-zero words, for differential comparison."""
        return dict(self._words)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self._words.items())

    def __len__(self) -> int:
        return len(self._words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMemory):
            return NotImplemented
        # Zero-valued entries are equivalent to absent entries.
        mine = {a: v for a, v in self._words.items() if v != 0}
        theirs = {a: v for a, v in other._words.items() if v != 0}
        return mine == theirs

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("SparseMemory is mutable and unhashable")
