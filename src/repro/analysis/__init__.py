"""Correctness tooling: static program verification + runtime sanitizing.

Two complementary passes keep the simulator honest as the hot paths get
rewritten for speed:

* :mod:`repro.analysis.proglint` — a static verifier over
  :class:`~repro.isa.program.Program` (CFG + dataflow) that catches
  generator bugs before a single cycle is simulated,
* :mod:`repro.analysis.sanitizer` — a per-event microarchitectural
  invariant checker the cores consult when ``REPRO_SANITIZE`` is set,
* :mod:`repro.analysis.taint` / :mod:`repro.analysis.taint_tracker` —
  a static speculative-leak taint pass over annotated secret data
  regions, cross-checked at runtime by a dynamic taint tracker
  (``REPRO_TAINT``) that records cache fills influenced by squashed
  strands' tainted addresses.
"""

from repro.analysis.cfg import CFG, BasicBlock
from repro.analysis.proglint import (
    DiagKind,
    Diagnostic,
    ProgramLinter,
    check_program,
    lint_program,
)
from repro.analysis.sanitizer import (
    OoOSanitizer,
    Sanitizer,
    SSTSanitizer,
    make_sanitizer,
    sanitize_enabled,
)
from repro.analysis.taint import (
    TaintReport,
    analyze_taint,
    clear_taint_cache,
    transient_pcs,
)
from repro.analysis.taint_tracker import (
    SSTTaintTracker,
    make_taint_tracker,
    taint_enabled,
)

__all__ = [
    "BasicBlock",
    "CFG",
    "DiagKind",
    "Diagnostic",
    "OoOSanitizer",
    "ProgramLinter",
    "SSTTaintTracker",
    "Sanitizer",
    "SSTSanitizer",
    "TaintReport",
    "analyze_taint",
    "check_program",
    "clear_taint_cache",
    "lint_program",
    "make_sanitizer",
    "make_taint_tracker",
    "sanitize_enabled",
    "taint_enabled",
    "transient_pcs",
]
