"""Pinned in-order machine: what ``InOrderCore`` computes, number for
number.

For each of the seven small-scale suite programs at issue widths 1, 2
and 4 (default hierarchy), and for each program of
``tests/baselines/test_cpi_stack.py``, the pins hold the cycle count,
the retired instruction count, the final architectural state's hash
(registers and every memory word, image words included:
``full_state_id``) and the CPI stack.  A change to how the
in-order pipeline is built must leave every number here as it is.
"""

import pytest

from repro.baselines.inorder import InOrderCore
from repro.config import HierarchyConfig, SSTConfig
from repro.isa.assembler import assemble
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads import full_suite
from tests.baselines.test_cpi_stack import PROGRAMS
from tests.conftest import full_state_id, small_hierarchy_config

# program -> (retired instructions, final-state hash), at every width.
SUITE_STATE = {
    "oltp-chase": (
        14345, "a53b76c26e8dd623e6f2196681dfbcb91d3944e627a51b048912accf97fe31f9"),
    "db-hashjoin": (
        15371, "5f87394903ea0df59d4b179a74b11af411b2b1ceed7361ac6d4d62fbd89329d4"),
    "index-btree": (
        40650, "4283e513ddbe740ecf1c8094c21265bd755057a95742a2975bdf5148c7b0b2ca"),
    "web-storelog": (
        20747, "c7f5e49e2ed1453ba8ef9511ccadd9945e29473080366a8135f8bb8e659bc502"),
    "fp-stream": (
        49159, "b5909a89d2dc68b357cadd42760ed69beda29a84cf7f252f39dab81f7a448b7c"),
    "int-branchy": (
        21628, "2ac7920bc5a74c9db6e68f1bfacaef8eb741b1f2d09c9262f2f30ede9b5a9c15"),
    "compute-matmul": (
        15888, "b7326204895fe769e58e37bb0d15a11bef4898f1163c6639565aabf2d4a14b0f"),
}

# (program, width) -> (cycles, CPI stack).
SUITE_TIMING = {
    ("oltp-chase", 1): (186705, dict(
        memory=172032, long_op=0, compute=0,
        branch=8, drain=0, busy=14665)),
    ("oltp-chase", 2): (181583, dict(
        memory=176129, long_op=0, compute=1,
        branch=9, drain=0, busy=5444)),
    ("oltp-chase", 4): (181581, dict(
        memory=180224, long_op=0, compute=1025,
        branch=9, drain=0, busy=323)),
    ("db-hashjoin", 1): (369435, dict(
        memory=346056, long_op=7680, compute=0,
        branch=8, drain=0, busy=15691)),
    ("db-hashjoin", 2): (366360, dict(
        memory=347592, long_op=7681, compute=7681,
        branch=9, drain=0, busy=3397)),
    ("db-hashjoin", 4): (366358, dict(
        memory=347592, long_op=9216, compute=9217,
        branch=9, drain=0, busy=324)),
    ("index-btree", 1): (295994, dict(
        memory=231560, long_op=1600, compute=0,
        branch=21864, drain=0, busy=40970)),
    ("index-btree", 2): (286799, dict(
        memory=235720, long_op=1737, compute=15463,
        branch=24362, drain=0, busy=9517)),
    ("index-btree", 4): (284641, dict(
        memory=235720, long_op=1919, compute=22081,
        branch=24597, drain=0, busy=324)),
    ("web-storelog", 1): (230803, dict(
        memory=205888, long_op=3840, compute=0,
        branch=8, drain=0, busy=21067)),
    ("web-storelog", 2): (223120, dict(
        memory=206656, long_op=3841, compute=4609,
        branch=9, drain=0, busy=8005)),
    ("web-storelog", 4): (222350, dict(
        memory=206656, long_op=4608, compute=10753,
        branch=9, drain=0, busy=324)),
    ("fp-stream", 1): (426319, dict(
        memory=335872, long_op=40960, compute=0,
        branch=8, drain=0, busy=49479)),
    ("fp-stream", 2): (409934, dict(
        memory=335873, long_op=49152, compute=8193,
        branch=9, drain=0, busy=16707)),
    ("fp-stream", 4): (401741, dict(
        memory=344064, long_op=49152, compute=8193,
        branch=9, drain=0, busy=323)),
    ("int-branchy", 1): (299710, dict(
        memory=256216, long_op=11650, compute=0,
        branch=9896, drain=0, busy=21948)),
    ("int-branchy", 2): (295547, dict(
        memory=257752, long_op=12143, compute=10034,
        branch=11133, drain=0, busy=4485)),
    ("int-branchy", 4): (294735, dict(
        memory=257752, long_op=13979, compute=11406,
        branch=11133, drain=0, busy=465)),
    ("compute-matmul", 1): (38854, dict(
        memory=12742, long_op=8640, compute=0,
        branch=1264, drain=0, busy=16208)),
    ("compute-matmul", 2): (32964, dict(
        memory=12760, long_op=10368, compute=2184,
        branch=1422, drain=0, busy=6230)),
    ("compute-matmul", 4): (30947, dict(
        memory=14632, long_op=10368, compute=4058,
        branch=1422, drain=0, busy=467)),
}

# test_cpi_stack.py program -> (cycles, retired instructions,
# final-state hash, CPI stack), width 2, 200-cycle memory.
CPI_PROGRAM_PINS = {
    "load_use": (
        216, 4,
        "4d120e2a9505d7d6d9af8f9cc5b1ea46f4c355a3388d7f8275ec08e6c71a8553",
        dict(memory=214, long_op=0, compute=1, branch=0, drain=0, busy=1)),
    "div_use": (
        26, 5,
        "9d29278c7e530c5a312f0fe20dee2bce60344ae62105251bc9fbe3ffdfa361d1",
        dict(memory=0, long_op=24, compute=0, branch=0, drain=0, busy=2)),
    "lcg_branch": (
        2894, 1501,
        "dcfadf5c3dc7e8cc0dd15bf71150148e58773ad52f973798156b76c8dfabc828",
        dict(memory=0, long_op=1001, compute=655, branch=864, drain=0,
             busy=374)),
    "store_membar": (
        216, 5,
        "cca86d81d79ec43f909eb3dd9d7063471ac15cd436ac1b8785bb85a73fca5007",
        dict(memory=0, long_op=0, compute=1, branch=0, drain=213, busy=2)),
    "independent_addi": (
        100, 201,
        "e0e6d6760afd84b48ecde86368556e49cb0d0be137bdccad3218c156b3bd6a88",
        dict(memory=0, long_op=0, compute=0, branch=0, drain=0, busy=100)),
    "serial_addi": (
        101, 102,
        "a4bff17d69e059aaee1ee6d8d9928aaaf846885860dde7f1e831940ed142d03e",
        dict(memory=0, long_op=0, compute=100, branch=0, drain=0, busy=1)),
}


def _observed(result):
    stack = {cause: cycles
             for cause, cycles in result.extra["cpi_stack"].items()
             if cause != "fetch"}
    return (result.cycles, result.instructions, full_state_id(result.state),
            stack)


@pytest.fixture(scope="module")
def suite():
    return {program.name: program for program in full_suite("small")}


@pytest.mark.parametrize("name,width", sorted(SUITE_TIMING))
def test_suite_program_is_pinned(suite, name, width):
    result = InOrderCore(suite[name], MemoryHierarchy(HierarchyConfig()),
                         SSTConfig(width=width, checkpoints=0)).run()
    cycles, stack = SUITE_TIMING[name, width]
    assert _observed(result) == (cycles, *SUITE_STATE[name], stack)


@pytest.mark.parametrize("name", sorted(CPI_PROGRAM_PINS))
def test_cpi_stack_program_is_pinned(name):
    hierarchy = MemoryHierarchy(small_hierarchy_config(latency=200))
    result = InOrderCore(assemble(PROGRAMS[name]), hierarchy,
                         SSTConfig(checkpoints=0)).run()
    assert _observed(result) == CPI_PROGRAM_PINS[name]


def test_every_cpi_stack_program_is_pinned():
    assert set(CPI_PROGRAM_PINS) == set(PROGRAMS)
