"""Branchy integer reduction — the SPEC-int-like control-flow pattern.

Each iteration loads a pseudo-random word and branches on its low bits
through a small tree of data-dependent branches.  When the load misses,
those branches have NA operands, so the SST core *predicts* them and
must validate at replay — with ~50/50 data the prediction often fails,
bounding speculation depth.  This workload drives the failure-rate rows
of the outcome table (E7) and the predictor-sensitivity experiment
(E12).
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
def branchy_reduce(iterations: int = 1024, data_words: int = 1 << 13,
                   biased: bool = False, seed: int = 6,
                   name: str = "int-branchy") -> Program:
    """Reduce ``iterations`` random words through data-dependent branches.

    ``biased=True`` makes the branch data ~94% zero so predictors do
    well — the contrast point for the predictor-sensitivity experiment.
    """
    check_pow2(data_words, "data_words")
    random_state = rng(seed)
    builder = ProgramBuilder(name)
    if biased:
        # Each word takes a random() and a randrange() in turn, so the
        # words are drawn one at a time.
        values = [(0 if random_state.random() < 0.94 else 1)
                  | random_state.randrange(1 << 10) << 4
                  for _ in range(data_words)]
    else:
        values = randbelow_many(random_state, 1 << 12, data_words)
    builder.data_words(HEAP_BASE, values)

    builder.movi(1, iterations)
    builder.movi(2, HEAP_BASE)
    builder.movi(3, seed | 1)  # LCG state
    builder.movi(4, LCG_MUL)
    builder.movi(5, LCG_ADD)
    builder.movi(6, data_words - 1)
    builder.movi(7, 0)  # accumulator
    builder.label("iter")
    builder.mul(3, 3, 4)
    builder.add(3, 3, 5)
    builder.srli(8, 3, 9)
    builder.and_(8, 8, 6)
    builder.slli(8, 8, 3)
    builder.add(8, 8, 2)
    builder.ld(9, 8, 0)  # the data the branches depend on
    builder.andi(10, 9, 1)
    builder.beq(10, 0, "even_path")
    # odd path: a short multiply chain.
    builder.mul(11, 9, 4)
    builder.add(7, 7, 11)
    builder.andi(12, 9, 2)
    builder.beq(12, 0, "join")
    builder.addi(7, 7, 5)
    builder.jal(0, "join")
    builder.label("even_path")
    builder.sub(7, 7, 9)
    builder.label("join")
    builder.addi(1, 1, -1)
    builder.bne(1, 0, "iter")
    builder.movi(13, RESULT_ADDR)
    builder.st(7, 13, 0)
    builder.halt()
    return builder.build()
