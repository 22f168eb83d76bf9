"""Parameter sweeps: run one program family across a list of machine
configs derived from a parameter axis (DQ size, checkpoint count, DRAM
latency, ...), collecting (parameter value → result).

Sweeps execute through :class:`~repro.sim.parallel.ParallelRunner`:
pass a :class:`~repro.sim.cache.ResultCache` to skip points that were
already simulated.  Results always come back in axis order.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.core_base import CoreResult, DEFAULT_MAX_INSTRUCTIONS
from repro.config import MachineConfig
from repro.isa.program import Program
from repro.sim.cache import ResultCache
from repro.sim.parallel import ParallelRunner, SimTask


def sweep(program: Program,
          axis: Iterable,
          make_config: Callable[[object], MachineConfig], *,
          verify: bool = False,
          max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
          cache: Optional[ResultCache] = None,
          on_error: str = "raise",
          ) -> List[Tuple[object, CoreResult]]:
    """Run ``program`` once per axis value.

    ``make_config(value)`` builds the machine for each point, so the
    sweep is explicit about exactly what varies.  With
    ``on_error="skip"`` a failing point (e.g. a diverging config) is
    dropped from the result list instead of aborting the sweep.

    Cache interaction: points already in ``cache`` load instead of
    re-simulating.  A cached-but-corrupt entry (one that fails golden
    verification under ``verify=True``, or that cannot be decoded at
    all) never fails the sweep by itself under either ``on_error``
    mode: the entry is quarantined and the point transparently
    re-simulated, and the fresh result replaces the corrupt file.
    ``on_error`` governs *simulation* failures only — a point is
    skipped (or raised on) exactly when its re-simulation fails, never
    merely because its cache entry was bad.
    """
    tasks = [
        SimTask(config=make_config(value), program=program,
                max_instructions=max_instructions, verify=verify,
                tag=value)
        for value in axis
    ]
    runner = ParallelRunner(cache=cache)
    results = runner.run(tasks, on_error=on_error)
    return [
        (task.tag, result)
        for task, result in zip(tasks, results)
        if result is not None
    ]


def sweep_many(programs: Sequence[Program],
               axis: Iterable,
               make_config: Callable[[object], MachineConfig], *,
               verify: bool = False,
               max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
               cache: Optional[ResultCache] = None,
               on_error: str = "raise",
               ) -> Dict[str, List[Tuple[object, CoreResult]]]:
    """A sweep per program; returns program name → sweep results.

    The whole (program × axis) matrix is submitted as one batch.
    Caching and ``on_error`` behave exactly as in
    :func:`sweep`: warm points load, cached-but-corrupt points are
    quarantined and re-simulated (they do not raise under either
    mode), and ``on_error`` applies to simulation failures only.
    """
    axis_values = list(axis)
    tasks = [
        SimTask(config=make_config(value), program=program,
                max_instructions=max_instructions, verify=verify,
                tag=value)
        for program in programs
        for value in axis_values
    ]
    runner = ParallelRunner(cache=cache)
    results = runner.run(tasks, on_error=on_error)
    out: Dict[str, List[Tuple[object, CoreResult]]] = {
        program.name: [] for program in programs
    }
    for task, result in zip(tasks, results):
        if result is not None:
            out[task.program.name].append((task.tag, result))
    return out

