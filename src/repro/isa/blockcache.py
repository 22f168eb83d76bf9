"""Basic-block dispatch engine: decode-once block execution.

Every execution engine in the library used to re-touch the decoded
:class:`~repro.isa.instruction.Instruction` dataclass on each dynamic
instruction — an attribute walk plus enum identity chain that dominated
simulator throughput.  This module decodes a :class:`Program` exactly
once into two progressively cheaper forms:

* **rows** — one flat tuple per PC with integer kind codes and
  prebound semantic handlers, unpacked in a single statement by the
  timing cores' fetch/decode front-ends (no enum compares, no
  dataclass attribute reads on the hot path);
* **block functions** — per-basic-block Python functions generated
  from the program's CFG (reusing :mod:`repro.analysis.cfg`) and
  compiled with :func:`exec`, executed by the golden interpreter so a
  straight-line block costs one call instead of one dispatch per
  instruction.

Results are cached per process, keyed by ``Program.fingerprint()`` —
the same content hash the result cache uses — so two structurally
identical programs (e.g. rebuilt in a worker process) share one decode
and simulator cache keys / ``SIM_SCHEMA_VERSION`` are unaffected.

The engine has no off switch.  The golden interpreter's per-instruction
:meth:`~repro.isa.interpreter.Interpreter.step` stays the reference:
it runs mid-block entries and near-budget blocks, it drives the
sanitizer's and taint tracker's shadow interpreters, and the trace
recorder runs on it alone.  The differential tests pin block execution
against it.

Exactness notes for the generated interpreter blocks:

* dynamic stats are batched per block (counts are static per block),
  so a mid-block :class:`ExecutionError` (e.g. a dynamically
  misaligned load) may leave ``stats``/``state.pc`` reflecting the
  whole block where per-instruction stepping stops at the faulting
  instruction.  Post-exception observables are the only divergence;
  every successful run is bit-identical, as is every error *raised*.
* the interpreter's runaway budget is honoured exactly: a block is
  only dispatched when the whole block fits under ``max_steps``,
  otherwise execution falls back to stepping.
* ``JALR`` keeps the reference operation order (link register written
  before the range check raises) and pins ``state.pc`` before raising.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ExecutionError
from repro.isa.opcodes import Op, OpClass
from repro.isa.program import Program

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
R_SOURCES = 7
R_WRITES = 8
R_USES_IMM = 9
R_INST = 10     # the original Instruction (cold paths, call/return checks)

Row = Tuple[int, int, int, int, int, int, Optional[Callable],
            Tuple[int, ...], bool, bool, object]

_MASK64_LIT = "0xFFFFFFFFFFFFFFFF"


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
        rows.append((kind, inst.rd, inst.rs1, inst.rs2, inst.imm,
                     inst.target, fn, inst.sources, inst.writes_reg,
                     inst.alu_uses_imm, inst))
    return tuple(rows)


# ----------------------------------------------------------------------
# Generated per-block interpreter functions.
# ----------------------------------------------------------------------

# ALU forms inlined as raw expressions ({a}/{b} substituted; the rest
# keep their prebound handler call for signed/division semantics).
_INLINE_ALU = {
    Op.ADD: "({a} + {b}) & " + _MASK64_LIT,
    Op.ADDI: "({a} + {b}) & " + _MASK64_LIT,
    Op.SUB: "({a} - {b}) & " + _MASK64_LIT,
    Op.MUL: "({a} * {b}) & " + _MASK64_LIT,
    Op.AND: "{a} & {b}",
    Op.ANDI: "{a} & {b}",
    Op.OR: "{a} | {b}",
    Op.ORI: "{a} | {b}",
    Op.XOR: "{a} ^ {b}",
    Op.XORI: "{a} ^ {b}",
    Op.SLL: "({a} << ({b} & 63)) & " + _MASK64_LIT,
    Op.SLLI: "({a} << ({b} & 63)) & " + _MASK64_LIT,
    Op.SRL: "{a} >> ({b} & 63)",
    Op.SRLI: "{a} >> ({b} & 63)",
}

_INLINE_BRANCH = {
    Op.BEQ: "{a} == {b}",
    Op.BNE: "{a} != {b}",
    Op.BLTU: "{a} < {b}",
    Op.BGEU: "{a} >= {b}",
}


def _alu_expr(pc: int, inst, namespace: dict) -> str:
    """Expression computing an arithmetic result (registers pre-read)."""
    a = f"regs[{inst.rs1}]"
    if inst.op is Op.MOVI:
        return str(inst.imm & 0xFFFFFFFFFFFFFFFF)
    if inst.alu_uses_imm:
        # The masked immediate is equivalent for every inlined form
        # (+, -, &, |, ^ are congruent mod 2**64; shifts mask to 63).
        b = str(inst.imm & 0xFFFFFFFFFFFFFFFF)
    else:
        b = f"regs[{inst.rs2}]"
    template = _INLINE_ALU.get(inst.op)
    if template is not None:
        return template.format(a=a, b=b)
    name = f"_h{pc}"
    namespace[name] = inst.alu_fn
    second = str(inst.imm) if inst.alu_uses_imm else b
    return f"{name}({a}, {second})"


def _emit_block(program: Program, start: int, end: int,
                lines: List[str], namespace: dict) -> None:
    insts = program.instructions
    n = len(insts)
    body: List[str] = []
    loads = stores = branches = jumps = 0
    for pc in range(start, end):
        inst = insts[pc]
        cls = inst.op_class
        if cls is OpClass.ALU or cls is OpClass.MUL or cls is OpClass.DIV:
            expr = _alu_expr(pc, inst, namespace)
            if inst.rd:
                body.append(f"    regs[{inst.rd}] = {expr}")
            else:
                # r0 writes are discarded but the reference still
                # evaluates the (pure, total) expression; keep it.
                body.append(f"    {expr}")
        elif cls is OpClass.LOAD:
            loads += 1
            addr = f"(regs[{inst.rs1}] + {inst.imm}) & {_MASK64_LIT}"
            if inst.rd:
                body.append(f"    regs[{inst.rd}] = mem_read({addr})")
            else:
                body.append(f"    mem_read({addr})")
        elif cls is OpClass.STORE:
            stores += 1
            addr = f"(regs[{inst.rs1}] + {inst.imm}) & {_MASK64_LIT}"
            body.append(f"    mem_write({addr}, regs[{inst.rs2}])")
        elif cls is OpClass.BRANCH:
            branches += 1
            template = _INLINE_BRANCH.get(inst.op)
            if template is not None:
                cond = template.format(a=f"regs[{inst.rs1}]",
                                       b=f"regs[{inst.rs2}]")
            else:
                name = f"_h{pc}"
                namespace[name] = inst.branch_fn
                cond = f"{name}(regs[{inst.rs1}], regs[{inst.rs2}])"
            body.append(f"    if {cond}:")
            body.append("        stats.branches_taken += 1")
            body.append(f"        return {inst.target}")
            body.append(f"    return {pc + 1}")
        elif cls is OpClass.JUMP:
            jumps += 1
            if inst.rd:
                body.append(f"    regs[{inst.rd}] = {pc + 1}")
            body.append(f"    return {inst.target}")
        elif cls is OpClass.JUMP_INDIRECT:
            jumps += 1
            body.append(
                f"    _a = (regs[{inst.rs1}] + {inst.imm}) & {_MASK64_LIT}"
            )
            if inst.rd:
                body.append(f"    regs[{inst.rd}] = {pc + 1}")
            body.append(f"    if _a >= {n}:")
            body.append(f"        state.pc = {pc}")
            body.append(
                "        raise _EE('indirect jump to %d outside program "
                f"at PC {pc}' % _a)"
            )
            body.append("    return _a")
        elif cls is OpClass.HALT:
            body.append(f"    state.pc = {pc}")
            body.append("    return None")
        # BARRIER / PREFETCH / NOP: no architectural effect, no stats.

    prologue = [f"def _b{start}(state, regs, mem_read, mem_write, stats):",
                f"    stats.instructions += {end - start}"]
    if loads:
        prologue.append(f"    stats.loads += {loads}")
    if stores:
        prologue.append(f"    stats.stores += {stores}")
    if branches:
        prologue.append(f"    stats.branches += {branches}")
    if jumps:
        prologue.append(f"    stats.jumps += {jumps}")
    lines.extend(prologue)
    lines.extend(body)
    last = insts[end - 1].op_class
    if last not in (OpClass.BRANCH, OpClass.JUMP, OpClass.JUMP_INDIRECT,
                    OpClass.HALT):
        # Fallthrough into the next leader (or off the end, where the
        # run loop's bounds check raises exactly like the reference).
        lines.append(f"    return {end}")
    lines.append("")


def compile_block_fns(
    program: Program, blocks: Tuple[Tuple[int, int], ...],
) -> Dict[int, Tuple[Callable, int]]:
    """exec-compile one function per basic block.

    Returns ``{leader_pc: (fn, block_length)}``; ``fn(state, regs,
    mem_read, mem_write, stats)`` executes the block and returns the
    next PC (``None`` after HALT).
    """
    namespace: dict = {"_EE": ExecutionError}
    lines: List[str] = []
    for start, end in blocks:
        _emit_block(program, start, end, lines, namespace)
    code = compile("\n".join(lines),
                   f"<blockcache:{program.name}>", "exec")
    exec(code, namespace)  # noqa: S102 - trusted, generated from the ISA
    return {start: (namespace[f"_b{start}"], end - start)
            for start, end in blocks}


# ----------------------------------------------------------------------
# The per-process block cache.
# ----------------------------------------------------------------------

class BlockProgram:
    """Everything decoded once for one program fingerprint."""

    __slots__ = ("rows", "blocks", "_program", "_block_fns")

    def __init__(self, program: Program):
        # Imported lazily: repro.analysis imports the ISA package, so a
        # module-level import here would be a cycle.
        from repro.analysis.cfg import CFG

        self._program = program
        self.blocks: Tuple[Tuple[int, int], ...] = tuple(
            (block.start, block.end) for block in CFG(program).blocks
        )
        self.rows = decode_rows(program)
        self._block_fns: Optional[Dict[int, Tuple[Callable, int]]] = None

    @property
    def block_fns(self) -> Dict[int, Tuple[Callable, int]]:
        """Generated interpreter block functions (compiled on demand)."""
        if self._block_fns is None:
            self._block_fns = compile_block_fns(self._program, self.blocks)
        return self._block_fns


_CACHE: Dict[str, BlockProgram] = {}


def get_block_program(program: Program) -> BlockProgram:
    """The process-cached :class:`BlockProgram` for ``program``.

    Keyed by content fingerprint, so equal programs share one decode
    regardless of instance identity and nothing about result-cache
    keying changes.
    """
    key = program.fingerprint()
    block_program = _CACHE.get(key)
    if block_program is None:
        block_program = BlockProgram(program)
        _CACHE[key] = block_program
    return block_program


def rows_for(program: Program) -> Tuple[Row, ...]:
    """Decoded rows for ``program`` (process-cached)."""
    return get_block_program(program).rows


def clear_cache() -> None:
    """Drop the process cache (tests and memory-sensitive callers)."""
    _CACHE.clear()
