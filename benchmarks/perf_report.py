#!/usr/bin/env python
"""Thin adapter over :mod:`repro.experiments.perf`.

The snapshot/regression-gate logic lives in the package (so the
``repro perf report`` CLI subcommand and ``run_all.py --perf-smoke``
share one implementation); this script keeps the historical entry
point and import surface (``import perf_report``) working.

Usage::

    python benchmarks/perf_report.py                # full tiny snapshot
    python benchmarks/perf_report.py --tag nightly  # custom tag
    python benchmarks/perf_report.py --smoke        # tiny workloads

Requires the ``repro`` package to be importable (``pip install -e .``
or ``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import List, Optional

try:
    from repro.experiments.perf import (
        DEFAULT_PERF_TOLERANCE,
        REPORT_SCHEMA,
        aggregate,
        load_baseline,
        measure,
        perf_entry,
        render,
        run_perf_smoke,
        speedup_vs_baseline,
        write_report,
    )
except ImportError as exc:  # pragma: no cover — setup error, not logic
    raise SystemExit(
        "error: the `repro` package is not importable "
        f"({exc}).\nInstall it (`pip install -e .`) or run with "
        "`PYTHONPATH=src`."
    ) from None

__all__ = [
    "DEFAULT_PERF_TOLERANCE",
    "REPORT_SCHEMA",
    "aggregate",
    "load_baseline",
    "measure",
    "perf_entry",
    "render",
    "run_perf_smoke",
    "speedup_vs_baseline",
    "write_report",
    "main",
]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Emit a BENCH_<tag>.json simulator-throughput "
                    "snapshot.")
    parser.add_argument("--tag", default="report",
                        help="snapshot tag (file name suffix)")
    parser.add_argument("--out", default=None,
                        help="output path override")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads (sets REPRO_BENCH_SMOKE=1)")
    args = parser.parse_args(argv)
    if args.smoke:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    payload = measure(tag=args.tag)
    path = write_report(
        payload, pathlib.Path(args.out) if args.out else None
    )
    print(render(payload))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
