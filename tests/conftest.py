"""Shared fixtures: small hierarchies that miss quickly, machine
factories, tiny hand-written programs, and readers of the directories
the result cache and the baseline store write."""

from __future__ import annotations

import pathlib
from typing import List

import pytest

from repro.config import (
    CacheConfig,
    DRAMConfig,
    HierarchyConfig,
    SSTConfig,
)
from repro.isa.assembler import assemble
from repro.memory.hierarchy import MemoryHierarchy
from repro.regress.records import BaselineRecord
from repro.regress.semid import semantic_id
from repro.regress.store import BaselineStore


def small_hierarchy_config(latency: int = 200,
                           mshr: int = 16) -> HierarchyConfig:
    """Small caches so tiny test programs actually miss."""
    return HierarchyConfig(
        l1d=CacheConfig(size_bytes=4 * 1024, assoc=2, hit_latency=2,
                        mshr_entries=mshr),
        l1i=CacheConfig(size_bytes=4 * 1024, assoc=2, hit_latency=1,
                        mshr_entries=4),
        l2=CacheConfig(size_bytes=32 * 1024, assoc=4, hit_latency=12,
                       mshr_entries=max(16, mshr)),
        dram=DRAMConfig(latency=latency, min_interval=2),
    )


@pytest.fixture
def small_hierarchy():
    return small_hierarchy_config()


@pytest.fixture
def hierarchy(small_hierarchy):
    return MemoryHierarchy(small_hierarchy)


@pytest.fixture
def sst_config():
    return SSTConfig(width=2, checkpoints=2, dq_size=32, sb_size=16)


COUNTDOWN_ASM = """
    movi r1, 10
    movi r2, 0
loop:
    add  r2, r2, r1
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""


@pytest.fixture
def countdown_program():
    return assemble(COUNTDOWN_ASM, name="countdown")


MISS_CHAIN_ASM = """
    .data 0x100000: 0x100040
    .data 0x100040: 0x100080
    .data 0x100080: 7
    movi r1, 0x100000
    ld   r2, 0(r1)      ; miss
    ld   r3, 0(r2)      ; dependent miss
    ld   r4, 0(r3)      ; dependent miss
    addi r5, r4, 1
    halt
"""


@pytest.fixture
def miss_chain_program():
    return assemble(MISS_CHAIN_ASM, name="miss-chain")


def json_files(root) -> List[pathlib.Path]:
    """The entries of a result-cache or baseline directory, sorted: its
    ``*.json`` files, without the hidden ``.tmp-*`` names a writer
    renames from."""
    return sorted(path for path in pathlib.Path(root).glob("*.json")
                  if not path.name.startswith("."))


def stored_records(root) -> List[BaselineRecord]:
    """Every record of the baseline directory ``root``."""
    store = BaselineStore(root)
    return [store.load(path.stem) for path in json_files(root)]


def full_state_id(state) -> str:
    """The semantic ID of a state's registers and every memory word,
    image words included, which ``ArchState.digest`` leaves out: the
    hash the literal final-state pins of the baseline tests hold."""
    return semantic_id({"regs": list(state.regs),
                        "memory": sorted(state.memory.snapshot().items())})
