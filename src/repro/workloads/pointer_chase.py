"""Pointer chasing — the OLTP-style miss pattern.

``chains`` independent linked lists are traversed round-robin in one
loop.  Within a chain every load's *address* depends on the previous
load (a dependent-miss chain no runahead technique can parallelise);
across chains the loads are independent, so the achievable MLP equals
``chains``.  Sweeping ``chains`` from 1 upward is the cleanest way to
show where SST's benefit comes from.

Node layout: 16 bytes — ``[next_ptr, payload]``.  Nodes are placed in a
random permutation of their region so successive hops land on different
cache lines/pages.
"""

from __future__ import annotations

from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.workloads.base import (
    HEAP_BASE,
    RESULT_ADDR,
    memoize_workload,
    randbelow_many,
    rng,
)

_NODE_BYTES = 16
_MAX_CHAINS = 8


@memoize_workload
def pointer_chase(chains: int = 4, nodes_per_chain: int = 256,
                  hops: int = 512, seed: int = 1,
                  name: str = "oltp-chase") -> Program:
    """Build the multi-chain pointer-chase program.

    ``hops`` counts loop iterations; each iteration advances every
    chain by one node (wrapping around its cycle).
    """
    if not 1 <= chains <= _MAX_CHAINS:
        raise ValueError(f"chains must be in 1..{_MAX_CHAINS}")
    if nodes_per_chain < 2:
        raise ValueError("nodes_per_chain must be >= 2")
    random_state = rng(seed)
    builder = ProgramBuilder(name)

    heads = []
    for chain in range(chains):
        base = HEAP_BASE + chain * nodes_per_chain * _NODE_BYTES * 2
        order = list(range(nodes_per_chain))
        random_state.shuffle(order)
        # Payloads in 1..999: randrange(1, 1000) is 1 + randrange(999).
        payloads = randbelow_many(random_state, 999, nodes_per_chain)
        # node order[i] -> node order[i+1]; last wraps to first.  Each
        # node's next pointer is laid out just before its payload.
        for position, node in enumerate(order):
            nxt = order[(position + 1) % nodes_per_chain]
            addr = base + node * _NODE_BYTES
            builder.data_word(addr, base + nxt * _NODE_BYTES)
            builder.data_word(addr + 8, 1 + payloads[position])
        heads.append(base + order[0] * _NODE_BYTES)

    # r1 = hop counter, r2 = accumulator, r10.. = chain cursors.
    builder.movi(1, hops)
    builder.movi(2, 0)
    for chain, head in enumerate(heads):
        builder.movi(10 + chain, head)
    builder.label("loop")
    for chain in range(chains):
        cursor = 10 + chain
        builder.ld(cursor, cursor, 0)  # cursor = cursor->next
        builder.ld(20 + chain, cursor, 8)  # payload of the new node
        builder.add(2, 2, 20 + chain)
    builder.addi(1, 1, -1)
    builder.bne(1, 0, "loop")
    builder.movi(3, RESULT_ADDR)
    builder.st(2, 3, 0)
    builder.halt()
    return builder.build()
