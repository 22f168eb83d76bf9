"""The differential fuzzer: shapes build lint-clean programs, the
check accepts healthy cores, its instrumented SST leg runs the
observers, and a seeded divergence is found and shrunk to a minimal
reproducer."""

import pytest

from repro.analysis.proglint import check_program
from repro.analysis.sanitizer import SSTSanitizer
from repro.errors import SanitizerError
from repro.isa.interpreter import run_program
from repro.isa.opcodes import Op
from repro.memory.sparse_memory import SparseMemory
from repro.workloads import fuzz as fuzz_module
from repro.workloads.fuzz import (
    CORE_FACTORIES,
    HAVE_HYPOTHESIS,
    build_program,
    corrupt,
    differential_check,
    fuzz,
)

pytestmark = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)

# A hand-written shape exercising every atom family.
SHAPE = (
    [3, 1, 4, 1, 5, 9, 2, 6],
    [n * 11 for n in range(fuzz_module.HEAP_WORDS)],
    2,
    [
        ("alu", Op.SUB, 1, 2, 3),
        ("load", 4, 1),
        ("store", 4, 2),
        ("branch", Op.BNE, 1, 2, 1),
        ("membar",),
        ("call",),
        ("prefetch", 3),
    ],
)


def test_build_program_is_lint_clean_and_deterministic():
    program = build_program(SHAPE)
    check_program(program)
    again = build_program(SHAPE)
    assert program.fingerprint() == again.fingerprint()


def test_differential_check_passes_on_healthy_cores():
    assert differential_check(build_program(SHAPE)) is None


def test_instrumented_leg_runs_the_sanitizer(monkeypatch):
    def failing_on_defer(self, entry, *args):
        raise SanitizerError("dq-live-checkpoint",
                             f"seeded at seq {entry.seq}", core="sst")

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.setattr(SSTSanitizer, "on_defer", failing_on_defer)
    verdict = differential_check(build_program(SHAPE))
    assert verdict is not None
    assert verdict.startswith("sst-instrumented:")
    assert "seeded" in verdict


def test_a_run_that_writes_through_to_the_image_is_a_verdict(monkeypatch):
    # Seed the bug the check guards against: a run's memory that shares
    # the program's image instead of copying it.
    program = build_program(SHAPE)
    monkeypatch.setattr(program, "image", dict(program.image))

    def share_image(self, image=None):
        self._words = {} if image is None else image

    monkeypatch.setattr(SparseMemory, "__init__", share_image)
    assert differential_check(program) == (
        "inorder: the run wrote through to the program's data image")


def test_core_factories_cover_all_machine_variants():
    names = [name for name, _ in CORE_FACTORIES]
    assert names == ["inorder", "ooo", "sst", "ea-conservative",
                     "sst-stressed", "scout-only"]


def test_corrupt_flips_exactly_the_first_sub():
    program = build_program(SHAPE)
    twisted = corrupt(program)
    flips = [
        (a.op, b.op)
        for a, b in zip(program.instructions, twisted.instructions)
        if a.op is not b.op
    ]
    assert flips == [(Op.SUB, Op.ADD)]


def test_corrupt_without_sub_returns_program_unchanged():
    shape = (SHAPE[0], SHAPE[1], 1, [("nop",)] * 4)
    program = build_program(shape)
    assert corrupt(program) is program


def test_fuzz_returns_none_when_everything_agrees():
    assert fuzz(max_examples=5, check=lambda program: None) is None


def test_fuzz_finds_and_shrinks_a_seeded_divergence():
    # The check stands in for a buggy core: architectural state of the
    # program vs. the same program with its first SUB flipped to ADD.
    # hypothesis must both FIND a shape where the flip matters and
    # SHRINK it to the smallest such program.
    def seeded_check(program):
        twisted = corrupt(program)
        if twisted is program:
            return None
        golden, wrong = run_program(program), run_program(twisted)
        if golden.regs != wrong.regs or golden.memory != wrong.memory:
            return "seeded: SUB->ADD flip changed architectural state"
        return None

    failure = fuzz(max_examples=300, check=seeded_check)
    assert failure is not None
    assert "seeded" in failure.detail
    # Shrunk to the floor of the shape space: a single loop iteration
    # and the minimum body size, with the one load-bearing SUB intact.
    _, _, loop_count, body = failure.shape
    assert loop_count == 1
    assert len(body) == 4
    assert any(inst.op is Op.SUB for inst in failure.program.instructions)
    summary = failure.summary()
    assert summary["instructions"] == len(failure.program.instructions)
    assert summary["listing"]
