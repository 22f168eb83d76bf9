"""Cross-machine comparison: ``speedup_table`` runs programs on several
machine configs (each with a fresh hierarchy) and renders the familiar
"speedup over baseline" rows with a geometric mean at the bottom.  It
executes through :class:`~repro.sim.parallel.ParallelRunner`, so an
optional :class:`~repro.sim.cache.ResultCache` skips already-simulated
points.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.baselines.core_base import CoreResult
from repro.config import DEFAULT_MAX_INSTRUCTIONS, MachineConfig
from repro.isa.program import Program
from repro.sim.cache import ResultCache
from repro.sim.parallel import ParallelRunner, SimTask
from repro.stats.report import Table, geomean


def speedup_table(title: str,
                  programs: Iterable[Program],
                  configs: Sequence[MachineConfig],
                  baseline_name: str, *,
                  verify: bool = False,
                  max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                  cache: Optional[ResultCache] = None,
                  ) -> Table:
    """One row per program: IPC of the baseline and speedup of every
    other machine over it; final row is the geometric mean.

    The full (program × config) matrix is one runner batch."""
    programs = list(programs)
    configs = list(configs)
    names = [config.name for config in configs]
    if baseline_name not in names:
        raise ValueError(f"baseline {baseline_name!r} not among {names}")
    others = [name for name in names if name != baseline_name]
    table = Table(
        title,
        ["workload", f"{baseline_name} IPC"]
        + [f"{name} speedup" for name in others],
    )
    tasks = [
        SimTask(config=config, program=program, verify=verify,
                max_instructions=max_instructions)
        for program in programs
        for config in configs
    ]
    runner = ParallelRunner(cache=cache)
    flat = runner.run(tasks)
    by_program: Dict[str, Dict[str, CoreResult]] = {}
    for task, result in zip(tasks, flat):
        by_program.setdefault(task.program.name, {})[task.config.name] = result
    speedups: Dict[str, List[float]] = {name: [] for name in others}
    for program in programs:
        results = by_program[program.name]
        base = results[baseline_name]
        row: List = [program.name, round(base.ipc, 3)]
        for name in others:
            speedup = results[name].speedup_over(base)
            speedups[name].append(speedup)
            row.append(f"{speedup:.2f}x")
        table.add_row(*row)
    if any(speedups.values()):
        summary: List = ["geomean", ""]
        summary.extend(f"{geomean(values):.2f}x" for values in speedups.values())
        table.add_row(*summary)
    return table
