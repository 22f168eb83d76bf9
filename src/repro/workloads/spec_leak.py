"""Spectre-style bounds-check-bypass gadgets for the taint analysis.

ROCK's execute-ahead strand runs past a deferred branch on predicted
control flow; its stores are contained in the store buffer and squashed
on rollback, but its *cache fills* survive.  These workloads seed that
exact leak shape so the static pass (:mod:`repro.analysis.taint`) and
the dynamic tracker (:mod:`repro.analysis.taint_tracker`) have a known
positive, a known negative, and a known imprecision case:

``spec_leak_gadget``
    The classic transmit: an out-of-bounds index reads a declared
    secret under a deferred bounds check, then uses it as the *address*
    of a second load.  The line it fills indexes the secret — flagged
    statically, observed dynamically on both SST and scout machines.

``spec_leak_safe``
    Same transient window, but the secret only ever flows into register
    values and store *data* — never an address.  Zero gadgets, zero
    dynamic records: the store buffer contains the leak entirely.

``spec_leak_store``
    The transmit is a tainted-address *store*.  Statically a gadget
    (the address encodes the secret), but on the SST machine the ahead
    strand parks stores in the store buffer, so no fill ever happens —
    a static-only verdict the report records as imprecision, not error.
    A scout machine *does* observe it: scout stores prefetch their line
    for ownership.

The choreography that makes the transient window real on a cold
machine (no predictor training needed — the seed bimodal counters
predict TAKEN):

1. ``prefetch A[idx]`` warms the secret element so the transient load
   is an L1 hit and resolves inside the window.
2. ``ld idx`` misses (episode A); the ``membar`` right behind it stalls
   the ahead strand, so episode A commits ``idx`` cleanly instead of
   deferring the whole dependent chain into the replay strand (where
   the older bounds check would replay first and squash the body
   before it runs).
3. The bound's address is computed *from* ``idx`` (``idx << 4``), so a
   scout pass over episode A cannot prefetch it — the bound load is
   guaranteed to miss and open episode B with ``idx`` available.
4. In episode B the bounds check ``blt idx, bound`` has an NA operand,
   defers, and the ahead strand follows the predicted-taken edge into
   the body.  Architecturally ``idx >= bound``, so replay detects the
   mispredict and rolls the episode back — after the transmit access
   already touched the hierarchy.
"""

from __future__ import annotations

from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.workloads.base import HEAP_BASE, memoize_workload

# Data image layout (byte offsets from HEAP_BASE).
OFF_IDX = 0        # the attacker-controlled index (16: out of bounds)
OFF_RES = 24       # architectural result slot (asserted 0 by tests)
OFF_LEAK = 32      # transient store target (squashed, never visible)
OFF_BOUND = 256    # the bounds-check limit (8), reached data-dependently
OFF_A = 512        # 8-word public table A
OFF_SECRET = 576   # 16 secret words right past A — A[16] lands here
OFF_B = 1024       # probe table B, indexed by (secret & 63) << 6

SECRET_VALUE = 42
# A has 8 entries; A[16] = OFF_A + 128 = OFF_SECRET + 64 lands squarely
# inside the secret region.
IDX_VALUE = 16
BOUND_VALUE = 8

_R_DATA, _R_A, _R_B = 10, 20, 21
_R_IDX, _R_BOUND, _R_BADDR = 2, 3, 4
_R_SECRET, _R_PROBE_ADDR, _R_PROBE, _R_ACC = 5, 6, 7, 8


def _prologue(name: str) -> ProgramBuilder:
    builder = ProgramBuilder(name)
    builder.data_word(HEAP_BASE + OFF_IDX, IDX_VALUE)
    builder.data_word(HEAP_BASE + OFF_BOUND, BOUND_VALUE)
    builder.data_words(
        HEAP_BASE + OFF_A, [100 + n for n in range(BOUND_VALUE)]
    )
    builder.secret_words(
        HEAP_BASE + OFF_SECRET, [SECRET_VALUE] * 16
    )

    builder.movi(_R_DATA, HEAP_BASE)
    builder.movi(_R_A, HEAP_BASE + OFF_A)
    builder.movi(_R_B, HEAP_BASE + OFF_B)
    builder.movi(_R_ACC, 0)
    # Warm the secret element so the transient load hits L1.
    builder.prefetch(_R_A, IDX_VALUE * 8)
    builder.ld(_R_IDX, _R_DATA, OFF_IDX)   # cold miss: episode A
    builder.membar()                       # commit idx before episode B
    builder.slli(_R_BADDR, _R_IDX, 4)      # bound addr depends on idx,
    builder.add(_R_BADDR, _R_BADDR, _R_DATA)  # so scout can't prewarm it
    builder.ld(_R_BOUND, _R_BADDR, 0)      # cold miss: episode B
    builder.blt(_R_IDX, _R_BOUND, "body")  # NA bound: predicted TAKEN
    builder.jal(0, "done")
    builder.label("body")
    builder.slli(_R_SECRET, _R_IDX, 3)
    builder.add(_R_SECRET, _R_SECRET, _R_A)
    builder.ld(_R_SECRET, _R_SECRET, 0)    # A[idx] — reads the secret
    builder.st(_R_SECRET, _R_DATA, OFF_LEAK)  # store-buffer contained
    return builder


def _probe_address(builder: ProgramBuilder) -> None:
    builder.andi(_R_PROBE_ADDR, _R_SECRET, 63)
    builder.slli(_R_PROBE_ADDR, _R_PROBE_ADDR, 6)
    builder.add(_R_PROBE_ADDR, _R_PROBE_ADDR, _R_B)


def _epilogue(builder: ProgramBuilder) -> Program:
    builder.label("done")
    builder.st(_R_ACC, _R_DATA, OFF_RES)
    builder.halt()
    return builder.build()


@memoize_workload
def spec_leak_gadget(name: str = "spec-leak-gadget") -> Program:
    """The positive case: tainted-address load fills a secret-indexed
    line before the squash."""
    builder = _prologue(name)
    _probe_address(builder)
    builder.ld(_R_PROBE, _R_PROBE_ADDR, 0)  # the gadget access
    builder.add(_R_ACC, _R_ACC, _R_PROBE)
    return _epilogue(builder)


@memoize_workload
def spec_leak_safe(name: str = "spec-leak-safe") -> Program:
    """The negative case: the secret flows through registers and store
    *data* only — containment holds, nothing to flag."""
    builder = _prologue(name)
    builder.add(_R_ACC, _R_ACC, _R_SECRET)
    return _epilogue(builder)


@memoize_workload
def spec_leak_store(name: str = "spec-leak-store") -> Program:
    """The imprecision case: a tainted-address *store*.  Static flags
    it; the SST ahead strand contains it in the store buffer (no fill),
    while scout mode prefetches the line for ownership and leaks."""
    builder = _prologue(name)
    _probe_address(builder)
    builder.st(_R_ACC, _R_PROBE_ADDR, 0)
    return _epilogue(builder)


# Deliberately NOT part of WORKLOAD_FACTORIES: these are analysis
# subjects, not benchmark members — the suite registry is asserted to
# match the performance suite exactly.  The CLI's ``lint`` subcommand
# and the e19 experiment merge this registry in.
ANALYSIS_WORKLOADS = {
    "spec-leak-gadget": spec_leak_gadget,
    "spec-leak-safe": spec_leak_safe,
    "spec-leak-store": spec_leak_store,
}

__all__ = [
    "ANALYSIS_WORKLOADS",
    "spec_leak_gadget",
    "spec_leak_safe",
    "spec_leak_store",
]
