"""Exception hierarchy for the SST reproduction library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the API boundary.  The subclasses separate
user mistakes (bad assembly, bad configuration) from simulator-internal
invariant violations, which always indicate a library bug.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every error raised by this library."""


class AssemblyError(ReproError):
    """The assembler rejected the source text (syntax, unknown opcode,
    undefined label, out-of-range operand)."""

    def __init__(self, message: str, line_number: int = 0, line: str = ""):
        self.line_number = line_number
        self.line = line
        if line_number:
            message = f"line {line_number}: {message}: {line!r}"
        super().__init__(message)


class ConfigError(ReproError):
    """A configuration value is out of its legal range or the combination
    of values is inconsistent (e.g. zero checkpoints with SST enabled)."""


class ProgramLintError(ReproError):
    """Strict-mode verification rejected a program.

    Raised by :func:`repro.analysis.proglint.check_program` (and the
    build-time verification of the workload generators) when the static
    verifier reports one or more diagnostics.  ``diagnostics`` carries
    the structured findings.
    """

    def __init__(self, diagnostics, program_name: str = ""):
        self.diagnostics = list(diagnostics)
        self.program_name = program_name
        listing = "\n".join(f"  {diag}" for diag in self.diagnostics)
        super().__init__(
            f"program {program_name!r} failed static verification with "
            f"{len(self.diagnostics)} diagnostic(s):\n{listing}"
        )


class ReproLookupError(ReproError, KeyError):
    """A requested id matched no registered or stored entry (or more
    than one).

    Still a :class:`KeyError`, so ``except KeyError`` callers keep
    working, but it prints as its plain message: ``KeyError.__str__``
    would quote it like a missing dictionary key.
    """

    __str__ = ReproError.__str__


class ExecutionError(ReproError):
    """The simulated program performed an illegal operation (misaligned
    access, division by zero, jump outside the program, runaway loop)."""


class SimulatorInvariantError(ReproError):
    """An internal consistency check of a timing model failed.

    This never indicates a problem with the simulated program; it means
    the simulator itself is broken and should be reported as a bug.
    """


class SanitizerError(SimulatorInvariantError):
    """The microarchitectural sanitizer caught an invariant violation.

    Raised only when ``REPRO_SANITIZE`` is enabled (see
    :mod:`repro.analysis.sanitizer`).  The message always carries the
    failing invariant plus cycle/strand context, so a violation deep in
    a long run is attributable without re-running under a debugger.
    """

    def __init__(self, invariant: str, detail: str, *,
                 core: str = "", cycle: Optional[int] = None,
                 strand: str = ""):
        self.invariant = invariant
        self.detail = detail
        self.core = core
        self.cycle = cycle
        self.strand = strand
        context = []
        if core:
            context.append(f"core={core}")
        if cycle is not None:
            context.append(f"cycle={cycle}")
        if strand:
            context.append(f"strand={strand}")
        suffix = f" [{', '.join(context)}]" if context else ""
        super().__init__(f"sanitizer: {invariant}: {detail}{suffix}")


class TaintError(SimulatorInvariantError):
    """The dynamic taint tracker observed a speculative-leak event the
    static taint pass did not predict.

    The static analysis (:mod:`repro.analysis.taint`) is a conservative
    may-analysis, so every dynamically observed tainted transient cache
    fill must fall inside its gadget set.  A dynamic observation outside
    that set means one of the two sides is wrong — a hard error.  The
    reverse direction (static gadget never observed) is ordinary
    imprecision and is reported, not raised.  Raised only when
    ``REPRO_TAINT`` is enabled (see :mod:`repro.analysis.taint_tracker`).
    """

    def __init__(self, detail: str, *, core: str = "", program: str = ""):
        self.detail = detail
        self.core = core
        self.program = program
        context = []
        if core:
            context.append(f"core={core}")
        if program:
            context.append(f"program={program}")
        suffix = f" [{', '.join(context)}]" if context else ""
        super().__init__(f"taint: {detail}{suffix}")
