"""Hash-join probe — the database miss pattern.

Each probe computes a pseudo-random bucket index with a register-only
LCG, then loads the bucket.  Consecutive probes are data-independent,
so an SST/EA core keeps issuing probe misses while the first is
outstanding — the high-MLP commercial pattern where the paper's
mechanism shines.  A fraction of probes take a second dependent hop
(``chased_fraction`` over 8), modelling bucket chains.
"""

from __future__ import annotations

from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.workloads.base import (
    memoize_workload,
    HEAP_BASE,
    LCG_ADD,
    LCG_MUL,
    RESULT_ADDR,
    check_pow2,
    randbelow_many,
    rng,
)


@memoize_workload
def hash_join(table_words: int = 1 << 15, probes: int = 2048,
              chased_fraction: int = 0, seed: int = 2,
              name: str = "db-hashjoin") -> Program:
    """Build the probe loop over a ``table_words``-word bucket table.

    ``chased_fraction``: 0 disables bucket chains; k in 1..8 makes
    roughly k/8 of the probes take one extra dependent load through the
    bucket's stored pointer.
    """
    check_pow2(table_words, "table_words")
    if not 0 <= chased_fraction <= 8:
        raise ValueError("chased_fraction must be in 0..8")
    random_state = rng(seed)
    builder = ProgramBuilder(name)

    # Bucket contents: a payload in the low word; bucket i also embeds a
    # pointer to a random other bucket for the chained case, stored
    # pre-scaled so the chain hop is one LD.
    targets = randbelow_many(random_state, table_words, table_words)
    builder.data_words(HEAP_BASE,
                       [HEAP_BASE + 8 * target for target in targets])

    builder.movi(1, probes)  # probe counter
    builder.movi(2, HEAP_BASE)  # table base
    builder.movi(3, seed * 2 + 1)  # LCG state
    builder.movi(4, LCG_MUL)
    builder.movi(5, LCG_ADD)
    builder.movi(6, table_words - 1)  # index mask
    builder.movi(7, 0)  # accumulator
    builder.movi(15, chased_fraction)
    builder.label("probe")
    builder.mul(3, 3, 4)
    builder.add(3, 3, 5)
    builder.srli(8, 3, 17)  # use high-ish bits for the index
    builder.and_(8, 8, 6)
    builder.slli(8, 8, 3)
    builder.add(8, 8, 2)
    builder.ld(9, 8, 0)  # the probe miss
    builder.add(7, 7, 9)
    if chased_fraction:
        builder.andi(10, 3, 7)
        builder.bge(10, 15, "no_chain")
        builder.ld(11, 9, 0)  # dependent hop through the bucket pointer
        builder.add(7, 7, 11)
        builder.label("no_chain")
    builder.addi(1, 1, -1)
    builder.bne(1, 0, "probe")
    builder.movi(12, RESULT_ADDR)
    builder.st(7, 12, 0)
    builder.halt()
    return builder.build()
