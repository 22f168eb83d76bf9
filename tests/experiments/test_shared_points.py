"""The sweeps' labels for one machine share one simulation: the
ROCK-like design point that E4, E5, E6, E11 and E16 each re-include
under their own name is simulated once against a cold cache, and the
documents are the ones each label's own simulation gives."""

import collections
import json

from repro import cli
from repro.sim.cache import result_key
from repro.sim.machine import Machine
from tests.experiments.test_cli_jobs import without_wall_seconds

EXPERIMENTS = "e4_dq_size,e5_checkpoints,e6_mlp_scout,e11_width," \
    "e16_defer_trigger"

# Each experiment's label for the default SST machine.
DEFAULT_SST = {"e4_dq_size": "sst-dq64", "e5_checkpoints": "sst-2ckpt",
               "e6_mlp_scout": "sst-2w-2ckpt", "e11_width": "sst-2w",
               "e16_defer_trigger": "sst-l1_miss"}


def run_documents(results_dir, *flags):
    assert cli.main(["experiments", "run", EXPERIMENTS, "--smoke",
                     "--jobs", "1", "--results-dir", str(results_dir),
                     *flags]) == 0
    return {path.stem: json.loads(path.read_text())
            for path in sorted(results_dir.glob("*.json"))}


def test_default_sst_point_is_simulated_once(tmp_path, monkeypatch):
    runs = collections.Counter()
    run = Machine.run

    def counted(self, program, max_instructions):
        runs[result_key(self.config, program, max_instructions)] += 1
        return run(self, program, max_instructions)

    monkeypatch.setattr(Machine, "run", counted)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    documents = run_documents(tmp_path / "cached")
    assert sorted(documents) == sorted(DEFAULT_SST)

    [shared] = {point["key"] for name, document in documents.items()
                for point in document["points"]
                if point["machine"] == DEFAULT_SST[name]
                and point["program"] == "db-hashjoin"}
    assert runs[shared] == 1
    # Every distinct point of the five experiments ran once, and the
    # cache holds one entry for each.
    assert set(runs.values()) == {1}
    assert len(list((tmp_path / "cache").glob("*.json"))) == len(runs)

    # Without the cache each label simulates its own copy of the point,
    # and the documents are the same but for host time.
    uncached = run_documents(tmp_path / "uncached", "--no-cache")
    assert runs[shared] == 1 + len(DEFAULT_SST)
    assert without_wall_seconds(uncached) == without_wall_seconds(documents)
