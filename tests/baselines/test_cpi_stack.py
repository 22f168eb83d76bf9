"""CPI-stack stall attribution of the in-order core."""

from repro.baselines.inorder import InOrderCore
from repro.config import InOrderConfig
from repro.isa.assembler import assemble
from repro.memory.hierarchy import MemoryHierarchy
from tests.conftest import small_hierarchy_config

# The programs below, by name (``test_inorder_pins.py`` pins each).
PROGRAMS = {
    "load_use": """
        movi r1, 0x100000
        ld   r2, 0(r1)
        addi r3, r2, 1
        halt
    """,
    "div_use": """
        movi r1, 1000
        movi r2, 7
        div  r3, r1, r2
        addi r4, r3, 1
        halt
    """,
    "lcg_branch": """
        movi r1, 200
        movi r3, 12345
        movi r4, 6364136223846793005
        movi r5, 1442695040888963407
    loop:
        mul  r3, r3, r4
        add  r3, r3, r5
        srli r7, r3, 33
        andi r7, r7, 1
        beq  r7, r0, skip
        addi r6, r6, 1
    skip:
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    """,
    "store_membar": """
        movi r1, 0x100000
        st   r1, 0(r1)
        membar
        movi r2, 1
        halt
    """,
    "independent_addi": "\n".join(
        f"addi r{1 + i % 8}, r{1 + i % 8}, 1" for i in range(200)
    ) + "\nhalt",
    "serial_addi": "movi r1, 0\n" + "\n".join(
        "addi r1, r1, 1" for _ in range(100)
    ) + "\nhalt",
}


def run(name: str):
    program = assemble(PROGRAMS[name])
    hierarchy = MemoryHierarchy(small_hierarchy_config(latency=200))
    return InOrderCore(program, hierarchy, InOrderConfig()).run()


def test_stack_sums_to_total_cycles():
    result = run("load_use")
    stack = result.extra["cpi_stack"]
    assert sum(stack.values()) == result.cycles


def test_memory_bound_attributed_to_memory():
    stack = run("load_use").extra["cpi_stack"]
    assert stack["memory"] > 150
    assert stack["memory"] > 10 * stack["compute"]


def test_long_op_attributed():
    stack = run("div_use").extra["cpi_stack"]
    assert stack["long_op"] > 10
    assert stack["memory"] == 0


def test_branch_stalls_attributed():
    stack = run("lcg_branch").extra["cpi_stack"]
    assert stack["branch"] > 100  # ~half the data branches mispredict


def test_drain_attributed_for_membar():
    assert run("store_membar").extra["cpi_stack"]["drain"] > 100


def test_independent_compute_is_mostly_busy():
    result = run("independent_addi")
    stack = result.extra["cpi_stack"]
    assert stack["busy"] > 0.8 * result.cycles


def test_serial_chain_is_compute_stall():
    """A serial dependence chain is RAW-stall time, not busy time."""
    result = run("serial_addi")
    stack = result.extra["cpi_stack"]
    assert stack["compute"] > 0.8 * result.cycles
