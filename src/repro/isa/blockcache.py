"""Decode-once instruction rows for the timing cores.

Reading the decoded :class:`~repro.isa.instruction.Instruction`
dataclass on each dynamic instruction costs an attribute walk plus an
enum identity chain, enough to dominate simulator throughput.  This
module decodes a :class:`Program` exactly once into **rows**: one flat
tuple per PC with an integer kind code and the prebound semantic
handler.  The in-order, OoO and SST cores unpack a row in a single
statement on their hot paths, with no enum compares and no dataclass
attribute reads.  The golden interpreter does not use rows: its
:meth:`~repro.isa.interpreter.Interpreter.step` reads the
``Instruction`` itself, so the reference semantics stay independent of
this decode.

A row carries exactly two source registers, ``src_a`` and ``src_b``:
the instruction's sources in rs1, rs2 order, padded with ``r0``.  The
cores test and wait on both in straight-line code, with no loop over a
tuple.  Padding with ``r0`` cannot change an outcome, because ``r0`` is
never the reason an operand is late:

* ``r0`` is never not-available (NA) during an SST episode: every NA
  write guards the zero register (``SpeculativeRegisters.write_na``,
  ``SSTCore._begin_episode`` and the generated loop's inlined NA writes
  and deferrals);
* ``r0``'s ready time never passes the clock.  The in-order and OoO
  cores never write it.  The SST core writes it only with the whole
  register file: a rollback sets every entry to the restart cycle it
  jumps to, and a full commit copies a speculative file whose ``r0``
  entry came from normal mode and was not written since.

``tests/property/test_prop_zero_register.py`` checks both at every
quantum boundary of the SST variants the fuzzer runs.

Rows are cached per process, keyed by ``Program.fingerprint()`` (the
same content hash the result cache uses), so two structurally identical
programs (e.g. rebuilt in a worker process) share one decode, and
simulator cache keys / ``SIM_SCHEMA_VERSION`` are unaffected.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.opcodes import OpClass
from repro.isa.program import Program
from repro.isa.registers import ZERO_REG

# ----------------------------------------------------------------------
# Integer kind codes (dense, ordered so ``kind < K_LOAD`` selects the
# three arithmetic classes with one comparison).
# ----------------------------------------------------------------------

K_ALU = 0
K_MUL = 1
K_DIV = 2
K_LOAD = 3
K_STORE = 4
K_PREFETCH = 5
K_BRANCH = 6
K_JUMP = 7
K_JUMP_INDIRECT = 8
K_BARRIER = 9
K_NOP = 10
K_HALT = 11

KIND_OF_CLASS = {
    OpClass.ALU: K_ALU,
    OpClass.MUL: K_MUL,
    OpClass.DIV: K_DIV,
    OpClass.LOAD: K_LOAD,
    OpClass.STORE: K_STORE,
    OpClass.PREFETCH: K_PREFETCH,
    OpClass.BRANCH: K_BRANCH,
    OpClass.JUMP: K_JUMP,
    OpClass.JUMP_INDIRECT: K_JUMP_INDIRECT,
    OpClass.BARRIER: K_BARRIER,
    OpClass.NOP: K_NOP,
    OpClass.HALT: K_HALT,
}

# Row field indices (``rows[pc]`` is one flat tuple per instruction).
R_KIND = 0
R_RD = 1
R_RS1 = 2
R_RS2 = 3
R_IMM = 4
R_TARGET = 5
R_FN = 6        # alu_fn for K_ALU/K_MUL/K_DIV, branch_fn for K_BRANCH
R_SRC_A = 7     # the first source register, or r0
R_SRC_B = 8     # the second source register, or r0
R_WRITES = 9
R_USES_IMM = 10
R_INST = 11     # the original Instruction (cold paths, call/return flags)

Row = Tuple[int, int, int, int, int, int, Optional[Callable],
            int, int, bool, bool, object]


def decode_rows(program: Program) -> Tuple[Row, ...]:
    """Flat per-PC row tuples for ``program`` (uncached)."""
    kind_of = KIND_OF_CLASS
    rows: List[Row] = []
    for inst in program.instructions:
        kind = kind_of[inst.op_class]
        if kind <= K_DIV:
            fn = inst.alu_fn
        elif kind == K_BRANCH:
            fn = inst.branch_fn
        else:
            fn = None
        src_a, src_b = (inst.sources + (ZERO_REG, ZERO_REG))[:2]
        rows.append((kind, inst.rd, inst.rs1, inst.rs2, inst.imm,
                     inst.target, fn, src_a, src_b, inst.writes_reg,
                     inst.alu_uses_imm, inst))
    return tuple(rows)


# ----------------------------------------------------------------------
# The per-process decode cache.
# ----------------------------------------------------------------------

_CACHE: Dict[str, Tuple[Row, ...]] = {}


def get_block_program(program: Program) -> Tuple[Row, ...]:
    """The process-cached rows of ``program``.

    Keyed by content fingerprint, so equal programs share one decode
    regardless of instance identity and nothing about result-cache
    keying changes.  The benchmark's per-layer trace times the
    ``isa.blockcache`` layer through this name (``bench/layers.py``).
    """
    key = program.fingerprint()
    rows = _CACHE.get(key)
    if rows is None:
        rows = decode_rows(program)
        _CACHE[key] = rows
    return rows


def clear_cache() -> None:
    """Drop the process cache (tests and memory-sensitive callers)."""
    _CACHE.clear()
