"""Configuration validation and presets."""

import dataclasses

import pytest

from repro.config import (
    BranchPredictorConfig,
    CacheConfig,
    CoreKind,
    DRAMConfig,
    HierarchyConfig,
    InOrderConfig,
    MachineConfig,
    OoOConfig,
    SSTConfig,
    ea_machine,
    inorder_machine,
    ooo_machine,
    scout_machine,
    sst_machine,
)
from repro.errors import ConfigError


def test_cache_geometry_helpers():
    config = CacheConfig(size_bytes=32 * 1024, assoc=4, line_bytes=64)
    assert config.num_sets == 128


@pytest.mark.parametrize("kwargs", [
    dict(size_bytes=1000, assoc=4, line_bytes=64),  # non-pow2 sets
    dict(size_bytes=64, assoc=4, line_bytes=64),  # smaller than a set
    dict(size_bytes=4096, assoc=0, line_bytes=64),
    dict(size_bytes=4096, assoc=1, line_bytes=4),  # line < word
    dict(size_bytes=4096, assoc=1, line_bytes=64, mshr_entries=0),
])
def test_bad_cache_configs(kwargs):
    with pytest.raises(ConfigError):
        CacheConfig(**kwargs)


def test_bad_dram_configs():
    with pytest.raises(ConfigError):
        DRAMConfig(latency=0)
    with pytest.raises(ConfigError):
        DRAMConfig(min_interval=-1)


@pytest.mark.parametrize("level", ["l1d", "l1i", "l2"])
def test_hierarchy_rejects_mixed_line_sizes(level):
    """Every level shares one line size: with 64 B L1D and 128 B L2
    lines the second L1D line of an L2 line still in flight from DRAM
    was served as an L2 hit before its data arrived."""
    base = HierarchyConfig()
    wide = CacheConfig(size_bytes=getattr(base, level).size_bytes,
                       assoc=getattr(base, level).assoc, line_bytes=128)
    with pytest.raises(ConfigError) as raised:
        HierarchyConfig(**{level: wide})
    message = str(raised.value)
    assert "\n" not in message
    sizes = {"l1d": "128, 64 and 64", "l1i": "64, 128 and 64",
             "l2": "64, 64 and 128"}[level]
    assert f"{sizes} bytes" in message
    # One size at every level is fine, whatever the size.
    narrow = {name: dataclasses.replace(getattr(base, name), line_bytes=32)
              for name in ("l1d", "l1i", "l2")}
    assert HierarchyConfig(**narrow).l2.line_bytes == 32


def test_predictor_validation():
    with pytest.raises(ConfigError):
        BranchPredictorConfig(table_bits=30)
    with pytest.raises(ConfigError):
        BranchPredictorConfig(history_bits=20, table_bits=10)
    with pytest.raises(ConfigError):
        BranchPredictorConfig(btb_entries=100)


def test_inorder_width_bounds():
    with pytest.raises(ConfigError):
        InOrderConfig(width=0)
    with pytest.raises(ConfigError):
        InOrderConfig(width=16)


def test_ooo_structure_bounds():
    with pytest.raises(ConfigError):
        OoOConfig(iq_size=256, rob_size=128)
    with pytest.raises(ConfigError):
        OoOConfig(lsq_size=256, rob_size=128)
    with pytest.raises(ConfigError):
        OoOConfig(rob_size=1)


def test_sst_validation():
    with pytest.raises(ConfigError):
        SSTConfig(dq_size=0)
    with pytest.raises(ConfigError):
        SSTConfig(checkpoints=-1)
    with pytest.raises(ConfigError):
        SSTConfig(checkpoints=0, scout_only=True)


def test_sst_mode_names():
    assert SSTConfig(checkpoints=0).mode_name == "inorder"
    assert SSTConfig(checkpoints=1, scout_only=True).mode_name == "scout"
    assert SSTConfig(checkpoints=1).mode_name == "execute-ahead"
    assert SSTConfig(checkpoints=2).mode_name == "sst"


def test_machine_requires_matching_core_config():
    with pytest.raises(ConfigError):
        MachineConfig(core_kind=CoreKind.SST)  # sst config missing


def test_machine_default_name():
    config = MachineConfig(core_kind=CoreKind.INORDER,
                           inorder=InOrderConfig())
    assert config.name == "inorder"


def test_presets_build():
    assert inorder_machine().core_kind is CoreKind.INORDER
    assert scout_machine().sst.scout_only
    assert ea_machine().sst.checkpoints == 1
    assert sst_machine().sst.checkpoints == 2
    assert ooo_machine(rob_size=64).ooo.rob_size == 64


def test_l2_miss_latency_helper():
    hierarchy = HierarchyConfig()
    expected = (hierarchy.l1d.hit_latency + hierarchy.l2.hit_latency
                + hierarchy.dram.latency)
    assert hierarchy.l2_miss_latency() == expected


def test_configs_are_frozen():
    config = SSTConfig()
    with pytest.raises(Exception):
        config.dq_size = 1  # type: ignore[misc]
