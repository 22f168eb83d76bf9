#!/usr/bin/env python
"""Run the whole 18-experiment evaluation in one command.

This script is a thin adapter over the ``repro`` CLI — the experiments
themselves live in :mod:`repro.experiments` and everything here maps
1:1 onto ``repro experiments run``.  Kept for muscle memory and old
docs; new workflows should call the CLI directly.  Simulator speed is
measured by ``python3 bench/run.py``.

Examples::

    python benchmarks/run_all.py                  # full evaluation
    python benchmarks/run_all.py --smoke --jobs 4 # CI smoke pass
    python benchmarks/run_all.py --only e3,e8     # two experiments
    python benchmarks/run_all.py --no-cache       # force re-simulation

Requires the ``repro`` package to be importable (``pip install -e .``
or ``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

try:
    from repro.cli import main as repro_main
except ImportError as exc:  # pragma: no cover — setup error, not logic
    raise SystemExit(
        "error: the `repro` package is not importable "
        f"({exc}).\nInstall it (`pip install -e .`) or run with "
        "`PYTHONPATH=src`."
    ) from None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark suite (tables and JSON result "
                    "documents land in benchmarks/results/). Thin "
                    "adapter over `repro experiments run`.")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload so the suite runs in "
                             "seconds (sets REPRO_BENCH_SMOKE=1)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="experiments to run concurrently "
                             "(default: REPRO_JOBS or 1; 0 = all cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache (REPRO_CACHE=0)")
    parser.add_argument("--only", default=None, metavar="E3,E8",
                        help="comma-separated experiment ids to run")
    parser.add_argument("--max-instructions", type=int, default=None,
                        help="override the per-run instruction budget")
    parser.add_argument("--sanitize", action="store_true",
                        help="run the smoke suite with REPRO_SANITIZE=1 "
                             "(per-event invariant checking; implies "
                             "--smoke --no-cache, since cached results "
                             "would skip the checked simulations)")
    args = parser.parse_args(argv)

    forwarded = ["experiments", "run"]
    if args.only:
        forwarded.extend(
            token.strip() for token in args.only.split(",") if token.strip()
        )
    else:
        forwarded.append("--all")
    if args.smoke:
        forwarded.append("--smoke")
    if args.jobs is not None:
        forwarded.extend(["--jobs", str(args.jobs)])
    if args.no_cache:
        forwarded.append("--no-cache")
    if args.max_instructions is not None:
        forwarded.extend(["--max-instructions", str(args.max_instructions)])
    if args.sanitize:
        forwarded.append("--sanitize")
    return repro_main(forwarded)


if __name__ == "__main__":
    sys.exit(main())
