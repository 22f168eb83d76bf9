"""Static verifier: one hand-built bad program per diagnostic kind,
plus the policies that keep real workloads lint-clean."""

import pytest

from repro.analysis.cfg import CFG
from repro.analysis.proglint import DiagKind, check_program, lint_program
from repro.errors import ProgramLintError, ReproError
from repro.isa.builder import ProgramBuilder
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.workloads.base import memoize_workload


def kinds(diagnostics):
    return [diag.kind for diag in diagnostics]


# ----------------------------------------------------------------------
# One bad program per diagnostic kind.
# ----------------------------------------------------------------------


def test_empty_program():
    program = Program([], name="empty")
    assert kinds(lint_program(program)) == [DiagKind.EMPTY_PROGRAM]


def test_no_halt():
    # Constructed directly: ProgramBuilder.build() would reject it.
    program = Program([Instruction(Op.MOVI, rd=1, imm=7)], name="no-halt")
    assert DiagKind.NO_HALT in kinds(lint_program(program))


def test_target_out_of_range():
    program = Program(
        [
            Instruction(Op.MOVI, rd=1, imm=0),
            Instruction(Op.BEQ, rs1=1, rs2=0, target=99),
            Instruction(Op.HALT),
        ],
        name="wild-branch",
    )
    diagnostics = lint_program(program)
    assert DiagKind.TARGET_OUT_OF_RANGE in kinds(diagnostics)
    [diag] = [d for d in diagnostics
              if d.kind is DiagKind.TARGET_OUT_OF_RANGE]
    assert diag.pc == 1


def test_unreachable_code():
    builder = ProgramBuilder("dead-block")
    builder.movi(1, 1)
    builder.jal(0, "end")
    builder.movi(2, 2)  # unreachable
    builder.movi(3, 3)  # unreachable (same block)
    builder.label("end")
    builder.halt()
    diagnostics = lint_program(builder.build())
    assert kinds(diagnostics) == [DiagKind.UNREACHABLE_CODE]
    assert diagnostics[0].pc == 2


def test_use_before_def():
    builder = ProgramBuilder("cold-read")
    builder.add(1, 2, 3)  # r2 and r3 never written
    builder.halt()
    diagnostics = lint_program(builder.build())
    assert kinds(diagnostics) == [DiagKind.USE_BEFORE_DEF] * 2
    assert {d.pc for d in diagnostics} == {0}


def test_use_before_def_joins_paths():
    # r2 is written on only one side of the branch: still a use-before-
    # def at the join (definitely-assigned means *every* path).
    builder = ProgramBuilder("one-sided")
    builder.movi(1, 1)
    builder.beq(1, 0, "skip")
    builder.movi(2, 5)
    builder.label("skip")
    builder.add(3, 2, 1)
    builder.halt()
    diagnostics = lint_program(builder.build())
    assert DiagKind.USE_BEFORE_DEF in kinds(diagnostics)


def test_zero_register_is_always_defined():
    builder = ProgramBuilder("r0-read")
    builder.add(1, 0, 0)  # reading r0 cold is fine: hardwired zero
    builder.halt()
    assert lint_program(builder.build()) == []


def test_zero_reg_write():
    builder = ProgramBuilder("r0-write")
    builder.movi(1, 5)
    builder.add(0, 1, 1)  # result silently discarded
    builder.halt()
    diagnostics = lint_program(builder.build())
    assert kinds(diagnostics) == [DiagKind.ZERO_REG_WRITE]
    assert diagnostics[0].pc == 1


def test_jal_link_discard_is_exempt():
    # ``jal(0, ...)`` is the conventional plain-jump idiom.
    builder = ProgramBuilder("plain-jump")
    builder.jal(0, "end")
    builder.label("end")
    builder.halt()
    assert lint_program(builder.build()) == []


def test_load_out_of_image():
    builder = ProgramBuilder("cold-load")
    builder.movi(1, 0x20_0000)  # no data word there, no store either
    builder.ld(2, 1, 0)
    builder.halt()
    diagnostics = lint_program(builder.build())
    assert kinds(diagnostics) == [DiagKind.LOAD_OUT_OF_IMAGE]
    assert diagnostics[0].pc == 1


def test_load_from_image_is_clean():
    builder = ProgramBuilder("warm-load")
    builder.data_word(0x10_0000, 42)
    builder.movi(1, 0x10_0000)
    builder.ld(2, 1, 0)
    builder.halt()
    assert lint_program(builder.build()) == []


def test_load_from_static_store_target_is_clean():
    # A store extends the program's own data segment (log/result
    # regions); loading it back is not a cold read.
    builder = ProgramBuilder("read-back")
    builder.movi(1, 0x20_0000)
    builder.movi(2, 7)
    builder.st(2, 1, 0)
    builder.ld(3, 1, 0)
    builder.halt()
    assert lint_program(builder.build()) == []


def test_misaligned_access():
    builder = ProgramBuilder("odd-addr")
    builder.movi(1, 0x10_0004)  # word size is 8
    builder.ld(2, 1, 0)
    builder.halt()
    diagnostics = lint_program(builder.build())
    assert kinds(diagnostics) == [DiagKind.MISALIGNED_ACCESS]


# ----------------------------------------------------------------------
# Reporting and integration surfaces.
# ----------------------------------------------------------------------


def test_check_program_raises_with_structured_diagnostics():
    builder = ProgramBuilder("bad")
    builder.add(1, 2, 2)
    builder.halt()
    program = builder.build()
    with pytest.raises(ProgramLintError) as excinfo:
        check_program(program)
    error = excinfo.value
    assert error.program_name == "bad"
    assert [d.kind for d in error.diagnostics] == [DiagKind.USE_BEFORE_DEF]
    assert "use_before_def" in str(error)


def test_diagnostic_str_carries_location():
    builder = ProgramBuilder("located")
    builder.movi(1, 3)
    builder.add(0, 1, 1)
    builder.halt()
    [diag] = lint_program(builder.build())
    text = str(diag)
    assert "located" in text and "pc 1" in text


def test_memoized_generators_are_verified_at_build_time():
    @memoize_workload
    def bad_generator():
        builder = ProgramBuilder("bad-generator")
        builder.add(1, 2, 2)  # use-before-def
        builder.halt()
        return builder.build()

    with pytest.raises(ProgramLintError):
        bad_generator()


# ----------------------------------------------------------------------
# CFG construction.
# ----------------------------------------------------------------------


def test_cfg_blocks_and_edges():
    builder = ProgramBuilder("loop")
    builder.movi(1, 4)           # 0  block 0
    builder.label("top")
    builder.addi(1, 1, -1)       # 1  block 1
    builder.bne(1, 0, "top")     # 2  block 1 -> {1, 2}
    builder.halt()               # 3  block 2
    cfg = CFG(builder.build())
    assert [("%d:%d" % (b.start, b.end)) for b in cfg.blocks] == \
        ["0:1", "1:3", "3:4"]
    assert cfg.blocks[0].successors == [1]
    assert sorted(cfg.blocks[1].successors) == [1, 2]
    assert cfg.blocks[2].successors == []
    assert cfg.reachable() == [True, True, True]


def test_cfg_out_of_range_target_drops_edge():
    program = Program(
        [
            Instruction(Op.JAL, rd=0, target=50),
            Instruction(Op.HALT),
        ],
        name="wild-jump",
    )
    cfg = CFG(program)
    assert cfg.blocks[0].successors == []
    assert cfg.reachable() == [True, False]


def test_data_word_misalignment_rejected_at_construction():
    with pytest.raises(ReproError, match="misaligned address 0x3"):
        Program([Instruction(Op.HALT)], image={3: 1})


# ----------------------------------------------------------------------
# Fingerprint-keyed lint memoization.
# ----------------------------------------------------------------------


def _lintable(name="lint-cache-sample"):
    builder = ProgramBuilder(name)
    builder.movi(0, 5)  # a zero-register write keeps the list non-empty
    builder.halt()
    return builder.build()


def test_lint_results_are_memoized_by_fingerprint():
    from repro.analysis import proglint

    proglint.clear_lint_cache()
    try:
        first = lint_program(_lintable())
        assert first
        assert _lintable().fingerprint() in proglint._LINT_CACHE
        # A structurally identical rebuild hits the cache and agrees.
        second = lint_program(_lintable())
        assert first == second
        # Callers get fresh lists — mutating one must not poison the
        # cache.
        first.append("garbage")
        assert lint_program(_lintable()) == second
        # Same code under a different name is a different fingerprint
        # (the name is embedded in each diagnostic).
        other = lint_program(_lintable(name="other"))
        assert len(proglint._LINT_CACHE) == 2
        assert all(diag.program == "other" for diag in other)
    finally:
        proglint.clear_lint_cache()


def test_lint_cache_bound_resets_instead_of_growing():
    from repro.analysis import proglint

    proglint.clear_lint_cache()
    try:
        proglint._LINT_CACHE.update(
            ("fake%d" % n, ()) for n in range(proglint._LINT_CACHE_MAX)
        )
        lint_program(_lintable())
        assert len(proglint._LINT_CACHE) == 1
    finally:
        proglint.clear_lint_cache()
