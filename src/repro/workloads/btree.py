"""Sorted-index lookups (binary search) — the tree-walk pattern.

Each lookup binary-searches a sorted array: ~log2(N) *dependent* loads
whose comparison outcome steers a hard-to-predict branch.  Lookups are
independent of each other, so an SST core can overlap the tail of one
walk with the head of the next — but deferred-branch mispredicts inside
a walk cap how far speculation survives.  This is the workload that
exercises speculation *failure* paths hardest.
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
)


@memoize_workload
def btree_lookup(array_words: int = 1 << 14, lookups: int = 256,
                 seed: int = 3, name: str = "index-btree") -> Program:
    """Binary-search ``lookups`` pseudo-random keys in a sorted array."""
    check_pow2(array_words, "array_words")
    builder = ProgramBuilder(name)

    # Sorted array: value at index i is 2*i, so half the probed keys
    # (odd ones) are absent — both branch directions get exercised.
    builder.data_words(HEAP_BASE, range(0, 2 * array_words, 2))

    builder.movi(1, lookups)
    builder.movi(2, HEAP_BASE)
    builder.movi(3, seed * 2 + 1)  # LCG state
    builder.movi(4, LCG_MUL)
    builder.movi(5, LCG_ADD)
    builder.movi(6, 2 * array_words - 1)  # key mask
    builder.movi(7, 0)  # accumulator

    builder.label("lookup")
    builder.mul(3, 3, 4)
    builder.add(3, 3, 5)
    builder.srli(9, 3, 13)
    builder.and_(9, 9, 6)  # r9 = key
    builder.movi(10, 0)  # lo
    builder.movi(11, array_words)  # hi
    builder.label("search")
    builder.bge(10, 11, "found")
    builder.add(12, 10, 11)
    builder.srli(12, 12, 1)  # mid
    builder.slli(13, 12, 3)
    builder.add(13, 13, 2)
    builder.ld(14, 13, 0)  # dependent probe
    builder.blt(14, 9, "go_right")
    builder.add(11, 12, 0)  # hi = mid  (add rX, rY, r0 = move)
    builder.jal(0, "search")
    builder.label("go_right")
    builder.addi(10, 12, 1)  # lo = mid + 1
    builder.jal(0, "search")
    builder.label("found")
    builder.add(7, 7, 10)
    builder.addi(1, 1, -1)
    builder.bne(1, 0, "lookup")
    builder.movi(15, RESULT_ADDR)
    builder.st(7, 15, 0)
    builder.halt()
    return builder.build()
