"""Program container: instructions, labels, and an initial data image.

A :class:`Program` is what workload generators produce and what every
core consumes.  The data image is one read-only ``{address: value}``
word map, validated once when the program is built: every address is
8-byte aligned and in range, every value fits 64 bits.  Each run starts
from a copy of it (:meth:`repro.isa.interpreter.ArchState.fresh`), so
generators lay out heaps, linked lists and tables without touching a
memory model directly.
"""

from __future__ import annotations

import functools
import itertools
import operator
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.isa.instruction import Instruction
from repro.regress.semid import line_digest

WORD_SIZE = 8  # bytes per architectural word
_MASK64 = 2**64 - 1
_MAX_WORD_ADDR = 2**64 - WORD_SIZE  # the highest address a word can start at


class Program:
    """An assembled program: instruction list + labels + data image.

    Instances are conceptually immutable once built; workload generators
    construct them through :class:`ProgramBuilder` or the assembler.
    ``image`` maps each initialised word's byte address to its value, in
    layout order; the program keeps its own checked copy, exposed as the
    read-only :attr:`image` that every run starts from.
    """

    def __init__(
        self,
        instructions: List[Instruction],
        labels: Optional[Dict[str, int]] = None,
        image: Optional[Mapping[int, int]] = None,
        name: str = "program",
        secret_ranges: Optional[Iterable[Tuple[int, int]]] = None,
    ):
        self.instructions: List[Instruction] = list(instructions)
        self.labels: Dict[str, int] = dict(labels or {})
        self.image: MappingProxyType[int, int] = MappingProxyType(
            _checked_image(image or {}))
        self.name = name
        # Half-open [start, end) byte ranges of the data image that hold
        # secret values, for the speculative-leak taint analysis
        # (repro.analysis.taint).  Empty for ordinary programs.
        self.secret_ranges: Tuple[Tuple[int, int], ...] = tuple(
            sorted((int(start), int(end)) for start, end in (secret_ranges or ()))
        )
        for start, end in self.secret_ranges:
            if start % WORD_SIZE or end % WORD_SIZE or end <= start:
                raise ReproError(
                    f"bad secret range [{start:#x}, {end:#x}): ranges must "
                    f"be non-empty and word-aligned"
                )
        self._fingerprint: Optional[str] = None

    def __reduce__(self):
        # A mappingproxy does not pickle; rebuild through __init__.
        return (Program, (self.instructions, self.labels, dict(self.image),
                          self.name, self.secret_ranges))

    @property
    def has_secrets(self) -> bool:
        return bool(self.secret_ranges)

    def is_secret_addr(self, addr: int) -> bool:
        """Does the word at ``addr`` overlap a declared secret range?"""
        for start, end in self.secret_ranges:
            if start < addr + WORD_SIZE and addr < end:
                return True
        return False

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def fingerprint(self) -> str:
        """Content identity: a SHA-256 over the instruction stream, the
        initial data image, and the program name.

        Two programs with the same fingerprint produce identical runs on
        identical machines, which is what makes the fingerprint usable
        as part of a content-addressed result-cache key (labels are
        excluded — they are disassembly cosmetics with no architectural
        effect).  The digest is memoized; programs are immutable once
        built.  Hashing routes through the shared semantic-ID scheme
        (:func:`repro.regress.semid.line_digest`), bit-compatible with
        every fingerprint minted before the unification.
        """
        if self._fingerprint is None:
            self._fingerprint = line_digest(self._fingerprint_lines())
        return self._fingerprint

    def _fingerprint_lines(self) -> Iterator[str]:
        yield f"program:{self.name}"
        for inst in self.instructions:
            yield (
                f"i:{inst.op.value}:{inst.rd}:{inst.rs1}:{inst.rs2}:"
                f"{inst.imm}:{inst.target}"
            )
        if self.image:
            # Every ``d:{addr}:{value}`` record, in layout order, from
            # one %-format and yielded newline-joined, which hashes the
            # same bytes as one record per word: a 64K-word table is
            # one call, not 64K f-strings.  ``%s`` renders each field
            # as the f-string did (``%d`` would write a bool as 1).
            yield "\n".join(["d:%s:%s"] * len(self.image)) % tuple(
                itertools.chain.from_iterable(self.image.items()))
        # Secret annotations change what the taint analysis reports,
        # so they are part of content identity — but only when
        # present, so every pre-existing fingerprint is unchanged.
        for start, end in self.secret_ranges:
            yield f"s:{start}:{end}"

    def validate(self) -> None:
        """Check structural sanity: targets in range, ends in HALT.

        Raises :class:`ReproError` on the first problem found.
        """
        from repro.isa.opcodes import Op, OpClass

        if not self.instructions:
            raise ReproError("empty program")
        for index, inst in enumerate(self.instructions):
            if inst.op_class in (OpClass.BRANCH, OpClass.JUMP):
                if not 0 <= inst.target < len(self.instructions):
                    raise ReproError(
                        f"instruction {index} targets {inst.target}, "
                        f"outside program of length {len(self.instructions)}"
                    )
        if not any(inst.op is Op.HALT for inst in self.instructions):
            raise ReproError("program has no HALT instruction")


def _checked_image(image: Mapping[int, int]) -> Dict[int, int]:
    """A copy of ``image`` with every address checked and every value
    reduced to 64 bits; raises :class:`ReproError` naming the first bad
    address."""
    words = dict(image)
    # Two passes in C clear an image with nothing to report or reduce.
    # A word's address is aligned and in range exactly when it has no
    # bit outside _MAX_WORD_ADDR's, and its value fits exactly when it
    # has no bit outside _MASK64's (a negative int has infinitely
    # many); the OR of all of them has such a bit exactly when one of
    # them does.
    if not words or not (
            functools.reduce(operator.or_, words) & ~_MAX_WORD_ADDR
            or functools.reduce(operator.or_, words.values()) & ~_MASK64):
        return words
    for addr, value in words.items():
        if addr % WORD_SIZE:
            raise ReproError(f"data word at misaligned address {addr:#x}")
        if not 0 <= addr <= _MAX_WORD_ADDR:
            raise ReproError(
                f"data word address {addr:#x} is outside "
                f"[0, {_MAX_WORD_ADDR:#x}]"
            )
        if not 0 <= value <= _MASK64:
            words[addr] = value & _MASK64  # replaces a value, adds no key
    return words
