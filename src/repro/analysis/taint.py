"""Static speculative-leak taint analysis.

ROCK's execute-ahead and scout strands run instructions whose effects on
the *architectural* state are squashed on rollback — but their cache
fills survive.  That is exactly the transmission channel of
Spectre-class attacks: a bounds check is deferred (its operands are not
available, NA), the predictor speculates past it, and a dependent load
chain reads a secret and encodes it into the address of a second access
that fills a cache line before the squash.

This pass answers, per instruction, "can a secret influence the address
of a memory access that may execute transiently?" over three layers:

* **Secret annotation** — :attr:`Program.secret_ranges` declares which
  byte ranges of the data image hold secrets (see
  ``ProgramBuilder.secret_words``).  No secrets, no taint: the analysis
  reports nothing on ordinary programs.

* **Transient reachability** — an instruction is transiently executable
  if it can sit between a speculation trigger and that trigger's
  resolution.  Triggers are conservatively every load: a miss starts an
  execute-ahead/scout episode, and nothing else does.  Since resolution
  points are timing-dependent, every pc reachable *after* a trigger —
  through **both** edges of every conditional branch, because the
  predictor may follow either — counts.

* **Taint lattice** — per-pc forward may-analysis with state
  ``(tainted? per register, any-tainted-value-in-memory?)``, join =
  pointwise OR, seeded by loads that can read a declared secret range
  (address resolution reuses proglint's constant propagation; an
  unresolvable load address taints conservatively whenever the program
  has secrets).  ALU ops propagate the OR of their sources; a store of
  a tainted value taints memory; link writes are untainted.

A **gadget** is a transiently-executable load/store/prefetch whose
*address* operand is tainted: its execution fills (or prefetches) a
cache line whose index depends on a secret, observable after the squash
through timing — even an L1 hit perturbs LRU/MSHR state.  Each gadget
is reported as a :class:`Diagnostic` of kind ``SPEC_LEAK_GADGET``.

This is a *may*-analysis: the dynamic tracker
(:mod:`repro.analysis.taint_tracker`) must observe a subset of these
gadgets, and a dynamic observation outside the static set is a hard
:class:`~repro.errors.TaintError`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.proglint import (
    _NAC,
    DiagKind,
    Diagnostic,
    constant_states,
    transfer_const,
)
from repro.isa.opcodes import OpClass
from repro.isa.program import Program
from repro.isa.registers import REG_COUNT, ZERO_REG

_MEM_CLASSES = (OpClass.LOAD, OpClass.STORE, OpClass.PREFETCH)


@dataclasses.dataclass(frozen=True)
class TaintReport:
    """The static verdict for one program."""

    program: str
    has_secrets: bool
    transient_pcs: FrozenSet[int]
    gadgets: Tuple[Diagnostic, ...]

    @property
    def gadget_pcs(self) -> FrozenSet[int]:
        return frozenset(
            diag.pc for diag in self.gadgets if diag.pc is not None
        )


# Memoized like proglint results: the verdict is a pure function of
# program content (secret ranges are part of the fingerprint).
_TAINT_CACHE: Dict[str, TaintReport] = {}
_TAINT_CACHE_MAX = 1024


def clear_taint_cache() -> None:
    """Drop all memoized taint reports (test hygiene)."""
    _TAINT_CACHE.clear()


def transient_pcs(program: Program, cfg: Optional[CFG] = None) -> FrozenSet[int]:
    """Every pc that can execute under a deferred/scout strand.

    A pc qualifies if it follows a speculation trigger (any load)
    within the trigger's block, or sits in any block
    reachable from that block's successors — following both branch
    edges, since a cold or mistrained predictor may take either.
    """
    cfg = cfg or CFG(program)
    instructions = program.instructions
    transient: set = set()
    seed_blocks: set = set()
    for block in cfg.blocks:
        pcs = list(block.pcs())
        for at, pc in enumerate(pcs):
            if instructions[pc].op_class is OpClass.LOAD:
                # Rest of the trigger's own block is transient...
                transient.update(pcs[at + 1:])
                # ...and so is everything the strand can reach from it.
                seed_blocks.update(block.successors)
                break
    worklist = list(seed_blocks)
    seen = set(seed_blocks)
    while worklist:
        index = worklist.pop()
        block = cfg.blocks[index]
        transient.update(block.pcs())
        for succ in block.successors:
            if succ not in seen:
                seen.add(succ)
                worklist.append(succ)
    return frozenset(transient)


def analyze_taint(program: Program) -> TaintReport:
    """Run the full static pass; memoized by program fingerprint."""
    key = program.fingerprint()
    cached = _TAINT_CACHE.get(key)
    if cached is None:
        if len(_TAINT_CACHE) >= _TAINT_CACHE_MAX:
            _TAINT_CACHE.clear()
        cached = _analyze(program)
        _TAINT_CACHE[key] = cached
    return cached


def _analyze(program: Program) -> TaintReport:
    if not program.instructions:
        return TaintReport(program=program.name, has_secrets=False,
                           transient_pcs=frozenset(), gadgets=())
    cfg = CFG(program)
    transient = transient_pcs(program, cfg)
    if not program.has_secrets:
        return TaintReport(program=program.name, has_secrets=False,
                           transient_pcs=transient, gadgets=())

    instructions = program.instructions
    reachable = cfg.reachable()
    const_in = constant_states(program, cfg)

    # Forward may-analysis: reg taints + one memory bit, join = OR.
    # None = block not yet visited (bottom).
    taint_in: List[Optional[Tuple[List[bool], bool]]] = [
        None for _ in cfg.blocks
    ]
    if cfg.blocks:
        taint_in[0] = ([False] * REG_COUNT, False)

    def transfer(index: int, regs: List[bool],
                 mem: bool) -> Tuple[List[bool], bool]:
        const = list(const_in[index])
        for pc in cfg.blocks[index].pcs():
            inst = instructions[pc]
            regs, mem = _transfer_taint(program, inst, const, regs, mem)
            transfer_const(inst, pc, const)
        return regs, mem

    worklist = [0] if cfg.blocks else []
    while worklist:
        index = worklist.pop()
        state = taint_in[index]
        if state is None:  # pragma: no cover - worklist discipline
            continue
        out_regs, out_mem = transfer(index, list(state[0]), state[1])
        for succ in cfg.blocks[index].successors:
            current = taint_in[succ]
            if current is None:
                taint_in[succ] = (list(out_regs), out_mem)
                worklist.append(succ)
                continue
            changed = False
            merged_regs, merged_mem = current
            for reg in range(REG_COUNT):
                if out_regs[reg] and not merged_regs[reg]:
                    merged_regs[reg] = True
                    changed = True
            if out_mem and not merged_mem:
                taint_in[succ] = (merged_regs, True)
                changed = True
            if changed:
                worklist.append(succ)

    # Final sweep: flag transient memory accesses with tainted address.
    gadgets: List[Diagnostic] = []
    for block in cfg.blocks:
        if not reachable[block.index] or taint_in[block.index] is None:
            continue
        regs, mem = taint_in[block.index]
        regs = list(regs)
        const = list(const_in[block.index])
        for pc in block.pcs():
            inst = instructions[pc]
            if (pc in transient and inst.op_class in _MEM_CLASSES
                    and inst.rs1 != ZERO_REG and regs[inst.rs1]):
                gadgets.append(Diagnostic(
                    kind=DiagKind.SPEC_LEAK_GADGET,
                    message=(
                        f"{inst.op.value} address depends on r{inst.rs1}, "
                        f"which may carry a secret-tainted value while "
                        f"executing transiently — the access can fill a "
                        f"cache line before the squash"
                    ),
                    pc=pc,
                    program=program.name,
                ))
            regs, mem = _transfer_taint(program, inst, const, regs, mem)
            transfer_const(inst, pc, const)
    gadgets.sort(key=lambda d: d.pc if d.pc is not None else -1)
    return TaintReport(program=program.name, has_secrets=True,
                       transient_pcs=transient, gadgets=tuple(gadgets))


def _transfer_taint(program: Program, inst, const: List[Optional[int]],
                    regs: List[bool], mem: bool) -> Tuple[List[bool], bool]:
    """One instruction's taint transfer.  ``const`` is the constant
    state *before* the instruction (callers advance it separately)."""
    cls = inst.op_class
    if cls is OpClass.STORE:
        # Storing a tainted value puts a secret-derived word in memory;
        # any later load that may read it must inherit the taint.
        if inst.rs2 != ZERO_REG and regs[inst.rs2]:
            mem = True
        return regs, mem
    if not inst.writes_reg or inst.rd == ZERO_REG:
        return regs, mem
    if cls is OpClass.LOAD:
        base = const[inst.rs1] if inst.rs1 != ZERO_REG else 0
        if base is _NAC:
            # Unknown address: with secrets anywhere in the image, the
            # load may read one (may-analysis).
            value_taint = program.has_secrets or mem
        else:
            addr = (base + inst.imm) & (2 ** 64 - 1)
            value_taint = program.is_secret_addr(addr) or mem
        regs[inst.rd] = value_taint
        return regs, mem
    if cls in (OpClass.ALU, OpClass.MUL, OpClass.DIV):
        tainted = False
        for src in inst.sources:
            if src != ZERO_REG and regs[src]:
                tainted = True
                break
        regs[inst.rd] = tainted
        return regs, mem
    # JUMP / JUMP_INDIRECT link writes carry a pc, never a secret.
    regs[inst.rd] = False
    return regs, mem


__all__ = [
    "TaintReport",
    "analyze_taint",
    "clear_taint_cache",
    "transient_pcs",
]
