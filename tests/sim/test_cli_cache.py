"""The ``repro cache stats|fsck|clear`` maintenance subcommands."""

import json

import pytest

from repro.cli import main
from repro.config import sst_machine
from repro.sim.cache import SIM_SCHEMA_VERSION, ResultCache, result_key
from repro.sim.runner import simulate
from repro.workloads import hash_join
from tests.conftest import small_hierarchy_config


@pytest.fixture
def warm_dir(tmp_path):
    cache = ResultCache(tmp_path)
    config = sst_machine(small_hierarchy_config())
    program = hash_join(table_words=256, probes=32)
    cache.store(result_key(config, program, 1000),
                simulate(config, program))
    return tmp_path


def test_cache_stats_human_and_json(warm_dir, capsys):
    assert main(["cache", "stats", "--cache-dir", str(warm_dir)]) == 0
    text = capsys.readouterr().out
    assert "entries:     1" in text

    assert main(["cache", "stats", "--cache-dir", str(warm_dir),
                 "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["entries"] == 1
    assert info["schema"] == SIM_SCHEMA_VERSION
    assert info["total_bytes"] > 0


def test_cache_fsck_repairs_corruption(warm_dir, capsys):
    (warm_dir / "dead.json").write_text("{broken")
    (warm_dir / ".tmp-leftover.json").write_text("partial")

    # Dry run: problems found, nothing removed, non-zero exit.
    assert main(["cache", "fsck", "--cache-dir", str(warm_dir),
                 "--dry-run"]) == 1
    assert "1 corrupt" in capsys.readouterr().out
    assert (warm_dir / "dead.json").exists()

    # Repairing run removes both offenders and exits 0.
    assert main(["cache", "fsck", "--cache-dir", str(warm_dir)]) == 0
    out = capsys.readouterr().out
    assert "removed dead.json" in out
    assert "removed .tmp-leftover.json" in out
    assert not (warm_dir / "dead.json").exists()
    assert not (warm_dir / ".tmp-leftover.json").exists()
    assert len(ResultCache(warm_dir)) == 1  # the sound entry survives

    # A clean cache fscks clean.
    assert main(["cache", "fsck", "--cache-dir", str(warm_dir),
                 "--dry-run"]) == 0


def test_cache_clear(warm_dir, capsys):
    assert main(["cache", "clear", "--cache-dir", str(warm_dir)]) == 0
    assert "removed 1 cached result(s)" in capsys.readouterr().out
    assert len(ResultCache(warm_dir)) == 0
