"""Streaming kernels.

``array_stream`` — the SPEC-fp-like sweep: sequential loads with a
multiply-accumulate, optionally writing a result stream.  Misses are
regular (one per line), so execute-ahead and scout both capture them;
this is the workload where the *cheap* technique (scout) closes most
of the gap.

``store_stream`` — the logging/session-state pattern: each record does
one missing table load then bursts ``payload_words`` stores.  During a
speculative episode the burst fills the speculative store buffer, which
is what drives the SB-size experiment (E8).
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
def array_stream(words: int = 1 << 14, scale: int = 3,
                 write_back: bool = False, seed: int = 4,
                 name: str = "fp-stream") -> Program:
    """Sweep ``words`` sequential words with a multiply-accumulate."""
    if words < 1:
        raise ValueError("words must be >= 1")
    builder = ProgramBuilder(name)
    builder.data_words(HEAP_BASE, randbelow_many(rng(seed), 1 << 20, words))
    out_base = HEAP_BASE + 8 * words + (1 << 20)

    builder.movi(1, words)
    builder.movi(2, HEAP_BASE)
    builder.movi(3, 0)  # accumulator
    builder.movi(4, scale)
    if write_back:
        builder.movi(5, out_base)
    builder.label("sweep")
    builder.ld(6, 2, 0)
    builder.mul(6, 6, 4)
    builder.add(3, 3, 6)
    if write_back:
        builder.st(6, 5, 0)
        builder.addi(5, 5, 8)
    builder.addi(2, 2, 8)
    builder.addi(1, 1, -1)
    builder.bne(1, 0, "sweep")
    builder.movi(7, RESULT_ADDR)
    builder.st(3, 7, 0)
    builder.halt()
    return builder.build()


@memoize_workload
def store_stream(records: int = 512, payload_words: int = 8,
                 table_words: int = 1 << 14, seed: int = 5,
                 name: str = "web-storelog") -> Program:
    """Per record: one random table load, then a burst of stores."""
    check_pow2(table_words, "table_words")
    if payload_words < 1:
        raise ValueError("payload_words must be >= 1")
    builder = ProgramBuilder(name)
    builder.data_words(HEAP_BASE,
                       randbelow_many(rng(seed), 1 << 16, table_words))
    log_base = HEAP_BASE + 8 * table_words + (1 << 20)

    builder.movi(1, records)
    builder.movi(2, HEAP_BASE)
    builder.movi(3, seed | 1)  # LCG state
    builder.movi(4, LCG_MUL)
    builder.movi(5, LCG_ADD)
    builder.movi(6, table_words - 1)
    builder.movi(7, log_base)  # log cursor
    builder.movi(12, 0)  # dependent-use accumulator
    builder.label("record")
    builder.mul(3, 3, 4)
    builder.add(3, 3, 5)
    builder.srli(8, 3, 11)
    builder.and_(8, 8, 6)
    builder.slli(8, 8, 3)
    builder.add(8, 8, 2)
    builder.ld(9, 8, 0)  # session lookup (the triggering miss)
    builder.add(12, 12, 9)  # one dependent use (deferred under the miss)
    for word in range(payload_words):
        # Payload derives from the record counter, not the lookup, so
        # the store burst is *independent* of the miss: the stores
        # execute speculatively and fill the store buffer — the SB is
        # the resource this workload pressures.
        builder.addi(10, 1, word)
        builder.st(10, 7, 8 * word)
    builder.addi(7, 7, 8 * payload_words)
    builder.addi(1, 1, -1)
    builder.bne(1, 0, "record")
    builder.movi(11, RESULT_ADDR)
    builder.st(7, 11, 0)
    builder.halt()
    return builder.build()
