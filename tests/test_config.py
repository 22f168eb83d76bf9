"""Configuration validation and presets."""

import inspect

import pytest

from repro.config import (
    DEFAULT_MAX_INSTRUCTIONS,
    BranchPredictorConfig,
    CacheConfig,
    DRAMConfig,
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
    cache = CacheConfig(size_bytes=32 * 1024, assoc=4)
    assert cache.num_sets == 128


@pytest.mark.parametrize("kwargs", [
    dict(size_bytes=1000, assoc=4),  # non-pow2 sets
    dict(size_bytes=64, assoc=4),  # smaller than a set
    dict(size_bytes=4096, assoc=0),
    dict(size_bytes=4096, assoc=1, mshr_entries=0),
])
def test_bad_cache_configs(kwargs):
    with pytest.raises(ConfigError):
        CacheConfig(**kwargs)


def test_bad_dram_configs():
    with pytest.raises(ConfigError):
        DRAMConfig(latency=0)
    with pytest.raises(ConfigError):
        DRAMConfig(min_interval=-1)


def test_predictor_validation():
    assert BranchPredictorConfig(mispredict_penalty=0).mispredict_penalty == 0
    with pytest.raises(ConfigError):
        BranchPredictorConfig(mispredict_penalty=-1)


def test_inorder_width_bounds():
    with pytest.raises(ConfigError):
        SSTConfig(width=0, checkpoints=0)
    with pytest.raises(ConfigError):
        SSTConfig(width=16, checkpoints=0)


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
    with pytest.raises(ConfigError, match="exactly one"):
        SSTConfig(checkpoints=2, scout_only=True)


def test_sst_mode_names():
    assert SSTConfig(checkpoints=0).mode_name == "inorder"
    assert SSTConfig(checkpoints=1, scout_only=True).mode_name == "scout"
    assert SSTConfig(checkpoints=1).mode_name == "execute-ahead"
    assert SSTConfig(checkpoints=2).mode_name == "sst"


def test_machine_requires_matching_core_config():
    with pytest.raises(ConfigError, match="exactly one"):
        MachineConfig()  # no core config
    with pytest.raises(ConfigError, match="exactly one"):
        MachineConfig(sst=SSTConfig(), ooo=OoOConfig())


def test_machine_default_name():
    config = MachineConfig(sst=SSTConfig(checkpoints=0))
    assert config.name == "inorder"
    assert MachineConfig(sst=SSTConfig()).name == "sst"
    assert MachineConfig(ooo=OoOConfig()).name == "ooo"


def test_presets_build():
    assert inorder_machine().sst.checkpoints == 0
    assert inorder_machine().ooo is None
    assert scout_machine().sst.scout_only
    assert ea_machine().sst.checkpoints == 1
    assert sst_machine().sst.checkpoints == 2
    assert ooo_machine(rob_size=64).ooo.rob_size == 64


def test_configs_are_frozen():
    config = SSTConfig()
    with pytest.raises(Exception):
        config.dq_size = 1  # type: ignore[misc]


def test_one_default_instruction_budget():
    """Every entry point defaults to the one budget of repro.config, the
    budget every committed baseline record is keyed at."""
    from repro.baselines.inorder import InOrderCore
    from repro.baselines.ooo import OoOCore
    from repro.cli import build_parser
    from repro.cmp.multicore import Multicore
    from repro.core import SSTCore
    from repro.experiments import BenchEnv, ExperimentEngine
    from repro.isa.interpreter import Interpreter, run_program
    from repro.sim import Machine, SimTask, simulate, speedup_table

    budgets = {
        f"{function.__qualname__}({name})":
            inspect.signature(function).parameters[name].default
        for function, name in [
            (simulate, "max_instructions"),
            (Machine.run, "max_instructions"),
            (SimTask, "max_instructions"),
            (InOrderCore.run, "max_instructions"),
            (OoOCore.run, "max_instructions"),
            (SSTCore.run, "max_instructions"),
            (SSTCore.advance, "max_instructions"),
            (Multicore.run, "max_instructions"),
            (speedup_table, "max_instructions"),
            (BenchEnv, "max_instructions"),
            (ExperimentEngine, "max_instructions"),
            (Interpreter, "max_steps"),
            (run_program, "max_steps"),
        ]
    }
    args = build_parser().parse_args(["experiments", "run", "--all"])
    budgets["repro experiments run --max-instructions"] = \
        args.max_instructions
    assert budgets == dict.fromkeys(budgets, DEFAULT_MAX_INSTRUCTIONS)
