"""Sparse 64-bit word-addressable backing store.

The architectural memory image of a simulated machine.  Addresses are
byte addresses but accesses are aligned 64-bit words (the ISA's only
access size); unwritten words read as zero.  A run's memory starts as a
copy of its program's validated data image
(:attr:`repro.isa.program.Program.image`) and keeps a reference to it,
so :meth:`SparseMemory.changed_items` can hand the state digest only
the words a run changed or added.  Copy-on-demand snapshots
support speculative cores that need cheap rollback of *committed* state
(in practice the SST core never mutates committed memory speculatively,
but tests use snapshots for differential checks).
"""

from __future__ import annotations

import itertools
import operator
from types import MappingProxyType
from typing import Any, Dict, Iterator, NoReturn, Optional, Tuple

from repro.errors import ExecutionError

WORD_BYTES = 8
_MASK64 = 2**64 - 1
_NO_IMAGE: MappingProxyType = MappingProxyType({})


class SparseMemory:
    """Dictionary-backed word store with alignment checking.

    ``image``, when given, is a program's data image.  It was checked
    when the program was built, so it is copied without going through
    :meth:`write`.  The word map starts as that copy and never drops a
    key, so its first ``len(image)`` items are the image's keys in the
    image's order, which :meth:`changed_items` relies on.  No
    ``__slots__``: the sanitizer replaces :meth:`write` on the instance.
    """

    def __init__(
        self, image: Optional[MappingProxyType[int, int]] = None
    ) -> None:
        self._image: MappingProxyType[int, int] = (
            _NO_IMAGE if image is None else image)
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
        """A copy of every word, zero-valued ones included, for
        differential comparison."""
        return dict(self._words)

    def changed_items(self) -> Iterator[Tuple[int, int]]:
        """The ``(address, value)`` words that differ from the image or
        are absent from it, a zero written to a new address included.

        One C-level pass: the image's words are compared in place (both
        maps hold the image's keys first, in one order), and the words
        after them are the ones the run added.  For runs of one program,
        equal word maps give equal changed words and unequal maps give
        unequal ones.
        """
        words, image = self._words, self._image
        return itertools.chain(
            itertools.compress(
                words.items(),
                map(operator.ne, words.values(), image.values())),
            itertools.islice(words.items(), len(image), None))

    def __getstate__(self) -> Dict[str, Any]:
        # A mappingproxy does not pickle: the image travels as a dict.
        return {**self.__dict__, "_image": dict(self._image)}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        state["_image"] = MappingProxyType(state["_image"])
        self.__dict__.update(state)

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
