"""Shared helpers for workload generators: heap layout and seeded
pseudo-randomness (generation-time only — the generated programs are
fully deterministic)."""

from __future__ import annotations

import functools
import random
import struct
from typing import List

# Data heaps start here; instruction indices live in a separate address
# space inside the hierarchy, so any 8-aligned region works.
HEAP_BASE = 0x0010_0000
# Where workloads store their final result so tests can assert on it.
RESULT_ADDR = 0x0000_8000

# LCG constants the generated code itself uses to produce pseudo-random
# indices with plain MUL/ADD/AND instructions.
LCG_MUL = 6364136223846793005
LCG_ADD = 1442695040888963407


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def randbelow_many(random_state: random.Random, n: int,
                   count: int) -> List[int]:
    """``[random_state.randrange(n) for _ in range(count)]``, drawn in
    bulk: the same values, and ``random_state`` left in the same state.

    It reproduces CPython's rule for ``randrange(n)``
    (``Random._randbelow_with_getrandbits``, the same on 3.9 to 3.12):
    with ``k = n.bit_length()``, draw ``getrandbits(k)`` and draw again
    while the value is ``>= n``.  For ``k <= 32`` one draw is the top
    ``k`` bits of one 32-bit Mersenne Twister word, and
    ``getrandbits(32 * m)`` returns the next ``m`` words, least
    significant first whatever the host byte order.  So each chunk
    takes as many words as values are still needed and keeps the top
    ``k`` bits of each word whose top bits are ``< n``.  The draw ends
    with a chunk whose words are all kept, so it never draws past the
    last accepted word and later draws from ``random_state`` do not
    move.  A bound above 32 bits, where one draw spans several words,
    and an empty range (``n <= 0``) take the per-value loop.
    """
    if n <= 0 or n.bit_length() > 32:
        return [random_state.randrange(n) for _ in range(count)]
    shift = 32 - n.bit_length()
    limit = n << shift  # word < limit exactly when word >> shift < n
    values: List[int] = []
    while len(values) < count:
        need = count - len(values)
        words = struct.unpack(
            f"<{need}I",
            random_state.getrandbits(32 * need).to_bytes(4 * need, "little"))
        values += [word >> shift for word in words if word < limit]
    return values


def memoize_workload(fn):
    """Cache a workload generator's Programs by argument tuple.

    Every generator is a pure function of its arguments (seeded
    randomness only) and a built :class:`~repro.isa.program.Program` is
    immutable, so configuration sweeps that run the same workload on
    many machine variants can share one instance instead of re-laying
    tables of tens of thousands of data words per run.

    Every freshly built program is also run through the static verifier
    (:func:`repro.analysis.proglint.check_program`) before it enters the
    cache — memoization makes this a one-time cost per parameter tuple,
    and a generator bug surfaces as a :class:`~repro.errors.\
ProgramLintError` at build time instead of a silently wrong benchmark.
    """
    cache = {}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        program = cache.get(key)
        if program is None:
            from repro.analysis.proglint import check_program

            program = fn(*args, **kwargs)
            check_program(program)
            cache[key] = program
        return program

    wrapper.cache = cache
    return wrapper


def check_pow2(value: int, what: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{what} must be a power of two, got {value}")
