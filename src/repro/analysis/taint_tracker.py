"""Dynamic speculative-leak taint tracker (``REPRO_TAINT``).

The observational counterpart of the static pass in
:mod:`repro.analysis.taint`: it shadows one :class:`SSTCore` run with
per-register / per-address taint bits and records every cache-hierarchy
access (load fill, scout prefetch, explicit prefetch) whose *address*
was influenced by a declared secret while the issuing strand was later
squashed.  Those are the fills an attacker can observe after the
rollback — the simulator's architectural state is clean (the
store-buffer containment guard sees to that), but the cache index
channel is not.

Design rules, in priority order:

* **Strictly observational.**  Like the sanitizer, the tracker must not
  perturb the simulation: golden cycle counts are bit-identical with
  ``REPRO_TAINT`` on and off.  It reads core state through pure
  accessors only (:meth:`StoreBuffer.peek_forward`, never ``forward``).
  An attached tracker makes the core compile the instrumented variant
  of its generated speculative loop (:mod:`repro.core.sst_dispatch`),
  the production engine with the ``on_ahead`` / ``on_scout_na`` /
  ``on_scout`` issue hooks compiled in, exactly as under
  ``REPRO_SANITIZE``.

* **Lazy architectural shadow.**  Committed-state taint comes from a
  shadow :class:`Interpreter` advanced to the core's committed
  instruction count only at episode boundaries and region commits —
  zero work on the normal-mode hot path.

* **Under-approximate.**  The static pass is a may-analysis; dynamic
  observations must be a subset of its gadget set.  Where the dynamic
  value is unknowable (an NA operand's placeholder in scout mode) the
  tracker assumes untainted.  A dynamic observation *outside* the
  static set therefore proves a bug in one of the two sides and raises
  :class:`~repro.errors.TaintError` at finalize; the reverse (static
  gadget never observed) is ordinary imprecision, reported not raised.

Speculative register taint needs no hook on producer completion: every
issued speculative instruction records a taint bit under its sequence
number, and :attr:`SpeculativeRegisters.last_writer` (which survives NA
resolution) maps a register to the youngest such bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.config import env_flag
from repro.isa.interpreter import Interpreter
from repro.isa.opcodes import OpClass
from repro.isa.program import WORD_SIZE, Program
from repro.isa.registers import REG_COUNT, ZERO_REG

_MASK64 = 2**64 - 1


def taint_enabled() -> bool:
    """Is the ``REPRO_TAINT`` dynamic taint tracker requested?"""
    return env_flag("REPRO_TAINT", default=False)


def make_taint_tracker(core: Any,
                       program: Program) -> Optional["SSTTaintTracker"]:
    """Factory consulted by :class:`SSTCore`; None when disabled."""
    if not taint_enabled():
        return None
    return SSTTaintTracker(core, program)


class SSTTaintTracker:
    """Taint shadow of one SSTCore run (see module docstring)."""

    def __init__(self, core: Any, program: Program):
        self.core = core
        self.program = program
        self._shadow = Interpreter(program)
        # Architectural (committed) taint state.
        self._arch_reg: List[bool] = [False] * REG_COUNT
        self._arch_mem: Dict[int, bool] = {}
        # Per-episode speculative taint state.
        self._overlay: List[bool] = list(self._arch_reg)
        self._seq_taint: Dict[int, bool] = {}
        self._dq_taint: Dict[int, Tuple[bool, bool]] = {}
        self._store_taint: Dict[int, bool] = {}
        self._scout_store_taint: Dict[int, bool] = {}
        # Hierarchy accesses with tainted addresses, not yet known to
        # commit or squash; confirmed into _records on rollback.
        self._pending: List[Dict[str, Any]] = []
        self._records: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Architectural shadow.
    # ------------------------------------------------------------------

    def _advance_to(self, executed: int) -> None:
        shadow = self._shadow
        instructions = self.program.instructions
        while shadow.stats.instructions < executed and not shadow.halted:
            self._arch_step(instructions[shadow.state.pc])
            shadow.step()

    def _arch_step(self, inst) -> None:
        """Taint transfer for one architecturally-executed instruction,
        using the shadow's pre-step state."""
        cls = inst.op_class
        state = self._shadow.state
        if cls is OpClass.LOAD:
            addr = (state.read_reg(inst.rs1) + inst.imm) & _MASK64
            if inst.rd != ZERO_REG:
                self._arch_reg[inst.rd] = (
                    self.program.is_secret_addr(addr)
                    or self._arch_mem.get(addr, False)
                )
        elif cls is OpClass.STORE:
            addr = (state.read_reg(inst.rs1) + inst.imm) & _MASK64
            # Exact address: a strong update, clearing stale taint when
            # an untainted value overwrites a tainted word.
            self._arch_mem[addr] = self._arch_reg[inst.rs2]
        elif cls in (OpClass.ALU, OpClass.MUL, OpClass.DIV):
            if inst.rd != ZERO_REG:
                self._arch_reg[inst.rd] = any(
                    self._arch_reg[src] for src in inst.sources
                    if src != ZERO_REG
                )
        elif cls in (OpClass.JUMP, OpClass.JUMP_INDIRECT):
            if inst.writes_reg and inst.rd != ZERO_REG:
                self._arch_reg[inst.rd] = False

    # ------------------------------------------------------------------
    # Speculative taint lookups.
    # ------------------------------------------------------------------

    def _reg_taint(self, reg: int) -> bool:
        """Taint of a register as the speculative strands see it."""
        if reg == ZERO_REG:
            return False
        spec = self.core.spec
        last = spec.last_writer[reg]
        if last in self._seq_taint:
            return self._seq_taint[last]
        producer = spec.producer_of(reg)
        if producer is not None:
            return self._seq_taint.get(producer, False)
        return self._overlay[reg]

    def _operand_taint(self, producer: Optional[int],
                       captured: bool) -> bool:
        if producer is not None:
            return self._seq_taint.get(producer, False)
        return captured

    def _mem_value_taint(self, addr: int, before_seq: int) -> bool:
        """Taint of the value a speculative load observes at ``addr``."""
        forwarded = self.core.sb.peek_forward(addr, before_seq)
        if forwarded is not None:
            return self._store_taint.get(forwarded[1], False)
        return (self.program.is_secret_addr(addr)
                or self._arch_mem.get(addr, False))

    def _record_access(self, pc: int, addr: int, seq: int, strand: str,
                       cycle: int) -> None:
        self._pending.append({
            "pc": pc, "addr": addr, "seq": seq,
            "strand": strand, "cycle": cycle,
        })

    # ------------------------------------------------------------------
    # Episode lifecycle hooks.
    # ------------------------------------------------------------------

    def on_episode_begin(self, trigger_pc: int, seq: int) -> None:
        self._advance_to(self.core._executed)
        self._overlay = list(self._arch_reg)
        self._seq_taint = {}
        self._dq_taint = {}
        self._store_taint = {}
        self._scout_store_taint = {}
        self._pending = []
        # The trigger is a load.  Its access is architectural (it
        # re-executes after any rollback), so it is never recorded —
        # only its value's taint matters.
        inst = self.program.instructions[trigger_pc]
        regs = self.core.state.regs
        addr = (regs[inst.rs1] + inst.imm) & _MASK64
        self._seq_taint[seq] = (self.program.is_secret_addr(addr)
                                or self._arch_mem.get(addr, False))

    def on_region_commit(self, executed: int, boundary_seq: int) -> None:
        self._advance_to(executed)
        # Everything older than the region boundary is architectural
        # now — those accesses were not transient after all.
        self._pending = [
            record for record in self._pending
            if record["seq"] >= boundary_seq
        ]

    def on_rollback(self) -> None:
        # Every still-pending tainted access belongs to a strand that is
        # being squashed: the fills are now observable-but-unaccounted
        # microarchitectural state — the leak.
        self._records.extend(self._pending)
        self._pending = []

    def on_episode_end(self) -> None:
        # Reached on full commit too, where pending accesses became
        # architectural: drop, don't record.
        self._overlay = list(self._arch_reg)
        self._seq_taint = {}
        self._dq_taint = {}
        self._store_taint = {}
        self._scout_store_taint = {}
        self._pending = []

    # ------------------------------------------------------------------
    # Issue hooks (all pre-dispatch, mirroring the core's early-return
    # guards so only accesses that really reach the hierarchy record).
    # ------------------------------------------------------------------

    def on_defer(self, entry: Any) -> None:
        inst = entry.inst
        taint1 = (self._reg_taint(inst.rs1)
                  if inst.reads_rs1 and entry.rs1_producer is None
                  else False)
        taint2 = (self._reg_taint(inst.rs2)
                  if inst.reads_rs2 and entry.rs2_producer is None
                  else False)
        self._dq_taint[entry.seq] = (taint1, taint2)
        # Placeholder until replay supplies the real result taint; JALR
        # link values written at defer time are genuinely untainted.
        self._seq_taint[entry.seq] = False

    def on_replay(self, entry: Any, cycle: int) -> None:
        inst = entry.inst
        cls = inst.op_class
        captured1, captured2 = self._dq_taint.get(entry.seq, (False, False))
        taint1 = self._operand_taint(entry.rs1_producer, captured1)
        taint2 = self._operand_taint(entry.rs2_producer, captured2)
        if cls in (OpClass.ALU, OpClass.MUL, OpClass.DIV):
            self._seq_taint[entry.seq] = (
                (taint1 if inst.reads_rs1 else False)
                or (taint2 if inst.reads_rs2 else False)
            )
            return
        value1, _ = self.core._replay_operands(entry)
        if cls is OpClass.LOAD:
            addr = (value1 + inst.imm) & _MASK64
            if addr % WORD_SIZE:
                return  # speculative fault: no access happens
            if self.core.sb.peek_forward(addr, entry.seq) is None and taint1:
                self._record_access(entry.pc, addr, entry.seq,
                                    "replay", cycle)
            self._seq_taint[entry.seq] = self._mem_value_taint(
                addr, entry.seq
            )
        elif cls is OpClass.STORE:
            # Resolves into the store buffer only — contained until a
            # commit drains it, discarded on rollback.  No fill, so a
            # tainted address here is static-only imprecision.
            self._store_taint[entry.seq] = taint2

    def on_ahead(self, inst: Any, pc: int, seq: int, cycle: int) -> None:
        cls = inst.op_class
        core = self.core
        if cls in (OpClass.ALU, OpClass.MUL, OpClass.DIV):
            self._seq_taint[seq] = any(
                self._reg_taint(src) for src in inst.sources
            )
            return
        if cls is OpClass.LOAD:
            addr = (core.spec.read(inst.rs1) + inst.imm) & _MASK64
            if addr % WORD_SIZE:
                return  # parks on a speculative fault
            conservative = not core.config.bypass_unresolved_stores
            if core.sb.blocks_load(addr, seq, conservative):
                return  # order-deferred; the on_defer hook takes over
            if core.sb.peek_forward(addr, seq) is None:
                if self._reg_taint(inst.rs1):
                    self._record_access(pc, addr, seq, "ahead", cycle)
            self._seq_taint[seq] = self._mem_value_taint(addr, seq)
            return
        if cls is OpClass.STORE:
            addr = (core.spec.read(inst.rs1) + inst.imm) & _MASK64
            if addr % WORD_SIZE or core.sb.full:
                return
            self._store_taint[seq] = self._reg_taint(inst.rs2)
            return
        if cls is OpClass.PREFETCH:
            addr = (core.spec.read(inst.rs1) + inst.imm) & _MASK64
            if addr % WORD_SIZE == 0 and self._reg_taint(inst.rs1):
                self._record_access(pc, addr, seq, "ahead", cycle)
            return
        if inst.writes_reg:
            # JAL / JALR link writes.
            self._seq_taint[seq] = False

    def on_scout_na(self, inst: Any, seq: int) -> None:
        # An NA source's dynamic value is a placeholder in scout mode;
        # its taint is unknowable, so assume untainted (see module
        # docstring: the dynamic side under-approximates).
        if inst.writes_reg:
            spec = self.core.spec
            self._seq_taint[seq] = any(
                self._reg_taint(src) for src in inst.sources
                if not spec.is_na(src)
            )

    def on_scout(self, inst: Any, pc: int, seq: int, cycle: int) -> None:
        cls = inst.op_class
        core = self.core
        if cls in (OpClass.ALU, OpClass.MUL, OpClass.DIV):
            self._seq_taint[seq] = any(
                self._reg_taint(src) for src in inst.sources
            )
            return
        if cls is OpClass.LOAD:
            addr = (core.spec.read(inst.rs1) + inst.imm) & _MASK64
            if addr % WORD_SIZE:
                return
            if self._reg_taint(inst.rs1):
                self._record_access(pc, addr, seq, "scout", cycle)
            if addr in core._scout_stores:
                self._seq_taint[seq] = self._scout_store_taint.get(
                    addr, False
                )
            else:
                self._seq_taint[seq] = self._mem_value_taint(addr, seq)
            return
        if cls is OpClass.STORE:
            addr = (core.spec.read(inst.rs1) + inst.imm) & _MASK64
            if addr % WORD_SIZE:
                return
            if self._reg_taint(inst.rs1):
                self._record_access(pc, addr, seq, "scout", cycle)
            self._scout_store_taint[addr] = self._reg_taint(inst.rs2)
            return
        if cls is OpClass.PREFETCH:
            addr = (core.spec.read(inst.rs1) + inst.imm) & _MASK64
            if addr % WORD_SIZE == 0 and self._reg_taint(inst.rs1):
                self._record_access(pc, addr, seq, "scout", cycle)
            return
        if inst.writes_reg:
            self._seq_taint[seq] = False

    # ------------------------------------------------------------------
    # Finalize: cross-check dynamic observations against the static
    # verdict and emit a JSON-ready report.
    # ------------------------------------------------------------------

    def finalize_report(self) -> Dict[str, Any]:
        from repro.analysis.taint import analyze_taint
        from repro.errors import TaintError

        static = analyze_taint(self.program)
        observed = sorted({record["pc"] for record in self._records})
        static_pcs = sorted(static.gadget_pcs)
        unexplained = sorted(set(observed) - set(static_pcs))
        if unexplained:
            raise TaintError(
                f"dynamic tracker observed tainted transient fills at "
                f"pcs {unexplained} that the static taint pass did not "
                f"flag (static gadgets: {static_pcs})",
                core=getattr(self.core, "name", ""),
                program=self.program.name,
            )
        return {
            "enabled": True,
            "program": self.program.name,
            "has_secrets": static.has_secrets,
            "transient_tainted_fills": len(self._records),
            "records": [dict(record) for record in self._records],
            "observed_gadget_pcs": observed,
            "static_gadget_pcs": static_pcs,
            # Static-only gadgets are expected imprecision (e.g. a
            # tainted-address store contained by the store buffer).
            "static_only_pcs": sorted(set(static_pcs) - set(observed)),
            "agreement": True,
        }


__all__ = [
    "SSTTaintTracker",
    "make_taint_tracker",
    "taint_enabled",
]
