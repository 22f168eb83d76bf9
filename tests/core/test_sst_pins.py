"""Pinned SST statistics of the default SST machine on the commercial
programs at smoke scale.

The pending-producer queries (``peak_outstanding_misses``, the region
commit check) read a heap, the replay strand picks from an index of the
deferred queue, and the generated loop opens full-width execute-ahead
cycles inline; each of these is exact, so every number below is the one
the direct walks and the cycle-by-cycle loop gave.
"""

import pytest

from repro.config import sst_machine
from repro.experiments.bench_env import BenchEnv
from repro.sim.machine import Machine

PINS = {
    "db-hashjoin": {
        "cycles": 2769, "peak_outstanding_misses": 31, "region_commits": 8,
        "replay_insts": 193,
        "mode_cycles": {"execute_ahead": 2562, "normal": 15,
                        "replay_only": 0, "scout": 0, "sst": 192},
    },
    "index-btree": {
        "cycles": 12540, "peak_outstanding_misses": 33, "region_commits": 3,
        "replay_insts": 18,
        "mode_cycles": {"execute_ahead": 3794, "normal": 8744,
                        "replay_only": 0, "scout": 0, "sst": 2},
    },
    "oltp-chase": {
        "cycles": 9787, "peak_outstanding_misses": 8, "region_commits": 0,
        "replay_insts": 0,
        "mode_cycles": {"execute_ahead": 881, "normal": 5167,
                        "replay_only": 0, "scout": 3739, "sst": 0},
    },
    "web-storelog": {
        "cycles": 4221, "peak_outstanding_misses": 6, "region_commits": 4,
        "replay_insts": 7,
        "mode_cycles": {"execute_ahead": 954, "normal": 2130,
                        "replay_only": 0, "scout": 1130, "sst": 7},
    },
}

ENV = BenchEnv(smoke=True, cache=None, firewall=None)


@pytest.mark.parametrize("program", ENV.commercial_suite(),
                         ids=lambda program: program.name)
def test_commercial_sst_statistics_are_pinned(program):
    result = Machine(sst_machine(ENV.hierarchy())).run(program)
    stats = result.extra["sst"]
    assert {
        "cycles": result.cycles,
        "peak_outstanding_misses": stats.peak_outstanding_misses,
        "region_commits": stats.region_commits,
        "replay_insts": stats.replay_insts,
        "mode_cycles": stats.mode_cycles,
    } == PINS[program.name]
