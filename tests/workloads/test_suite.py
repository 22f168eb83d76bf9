"""Suite registry: scales, names, composition."""

import pytest

from repro.errors import ConfigError
from repro.workloads.suite import (
    WORKLOAD_FACTORIES,
    commercial_suite,
    compute_suite,
    full_suite,
)


def test_commercial_suite_names():
    names = [program.name for program in commercial_suite("tiny")]
    assert names == ["oltp-chase", "db-hashjoin", "index-btree",
                     "web-storelog"]


def test_compute_suite_names():
    names = [program.name for program in compute_suite("tiny")]
    assert names == ["fp-stream", "int-branchy", "compute-matmul"]


def test_full_suite_is_union():
    assert len(full_suite("tiny")) == 7


def test_scales_grow():
    tiny = commercial_suite("tiny")
    small = commercial_suite("small")
    for tiny_program, small_program in zip(tiny, small):
        assert len(small_program.image) >= len(tiny_program.image)


def test_unknown_scale_rejected():
    with pytest.raises(ConfigError, match="unknown scale"):
        commercial_suite("huge")


def test_factories_cover_all_suites():
    suite_names = {p.name for p in full_suite("tiny")}
    assert suite_names == set(WORKLOAD_FACTORIES)


def test_tiny_suite_programs_run():
    from repro.isa.interpreter import Interpreter

    for program in full_suite("tiny"):
        Interpreter(program, max_steps=2_000_000).run()
