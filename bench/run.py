"""The repository benchmark: one command, every metric, checked outputs.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--out PATH]

It finds the simulator's sources next to itself.  With ``--workload`` it
measures that workload for ``--seconds`` (default: ``run_seconds`` in
``BENCHMARK.json``); without, all four in turn.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every end-to-end metric, or with ``--trace 1``
every per-layer metric (that run adds one traced sample).  ``--out``
writes the full report as JSON: raw and corrected samples, probe
times, quartiles, per-layer aggregates and spans.

Samples run in fresh child processes, single-threaded, with every
inherited ``REPRO_*`` variable removed and their caches and result
directories in a scratch directory under ``.bench_work/`` in the
checkout, which the run deletes when it ends.

Exit status: 0 when every check passed, 1 when a check failed or no
result could be measured, 2 when the simulator's sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Import the benchmark as the ``bench`` package, not its files as
# top-level modules (``bench/trace.py`` would shadow the standard one).
sys.path[0] = str(ROOT)

from bench import layers, measure  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = ROOT / "bench" / "child.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SIM_WORKLOADS = (layers.SST, layers.COMPUTE)
# suite-full-warm runs three experiments rather than the whole suite,
# which takes 60-70 s to prime and 13-18 s a sample warm on the reference
# host: a run has about 15 s for MIN_SAMPLES samples.  e4 and e8 read
# about 18 MB of cached SST results; the multicore runs of e18 are never
# cached.
FULL_WARM_EXPERIMENTS = ("e4_dq_size", "e8_sb_size", "e18_core_threading")
SETUP_REPEATS = 5
# Every run, the priming of suite-full-warm's cache included, must end
# within 180 s.
RUN_DEADLINE_S = 170.0
TAIL = 2000  # characters of a failed child's output to show


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclasses.dataclass
class Child:
    """One finished child process."""

    returncode: int
    wall_s: float
    maxrss_mb: float
    output: str


@dataclasses.dataclass
class Sample:
    """One timed sample: raw host seconds and probe-corrected seconds."""

    raw_s: float
    corrected_s: float


def child_env(scratch: pathlib.Path) -> Dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` knob (a stray
    ``REPRO_SANITIZE=1`` would change every number), with the sources on
    the path, one thread per numeric library, a fixed hash seed, and
    temporary files inside the checkout.  Bytecode is always cached, so
    that set-up times never include compiling the sources."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")
           and key != "PYTHONDONTWRITEBYTECODE"}
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(scratch),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


class Run:
    """One workload's run: scratch directory, child environment,
    deadline, measured metrics and the outcome of every check."""

    def __init__(self, workload: str, seed: Optional[int], seconds: float,
                 trace: bool, scratch: pathlib.Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = child_env(scratch)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.details: Dict[str, Any] = {}
        self._children = 0

    def operation(self, ok: bool, problem: str) -> None:
        """Count one operation (a simulated point or an experiment) and
        record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def require(self, ok: bool, problem: str) -> None:
        """A check that is no operation of its own; failing it makes the
        run incorrect."""
        if not ok:
            self.problems.append(problem)

    def spawn(self, argv: Sequence[str], *,
              env: Optional[Dict] = None) -> Child:
        """Run a child to completion.  Its wall time (start to exit) and
        own peak RSS come from ``wait4``; a watchdog kills it at the
        run's deadline."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"{self.workload}: out of time")
        self._children += 1
        log = self.scratch / f"child-{self._children}.log"
        expired = threading.Event()
        with open(log, "w") as handle:
            started = time.perf_counter()
            proc = subprocess.Popen(list(argv), cwd=ROOT,
                                    env={**self.env, **(env or {})},
                                    stdout=handle, stderr=subprocess.STDOUT)

            def expire() -> None:
                expired.set()
                proc.kill()

            watchdog = threading.Timer(timeout, expire)
            watchdog.start()
            reaped = False
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                watchdog.cancel()
                if not reaped:
                    proc.kill()
                    proc.wait()
            wall_s = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if expired.is_set():
            raise BenchError(f"{self.workload}: child killed after "
                             f"{timeout:.0f}s: {' '.join(argv[:6])}")
        return Child(proc.returncode, wall_s, usage.ru_maxrss / 1024.0,
                     log.read_text())

    def child_json(self, argv: Sequence[str], out: pathlib.Path, *,
                   env: Optional[Dict] = None) -> tuple:
        """Spawn a ``bench/child.py`` command that writes ``out``;
        returns (child, parsed ``out``)."""
        out.unlink(missing_ok=True)
        child = self.spawn([sys.executable, str(CHILD), argv[0],
                            "--out", str(out), *argv[1:]], env=env)
        if not out.exists():
            raise BenchError(f"{self.workload}: {argv[0]} child failed "
                             f"(exit {child.returncode}):\n"
                             f"{child.output[-TAIL:]}")
        return child, json.loads(out.read_text())


# ---------------------------------------------------------------------------
# Shared measurement steps.
# ---------------------------------------------------------------------------


def timed_samples(run: Run, take: Callable[[int], Sample]) -> List[Sample]:
    """At least ``MIN_SAMPLES`` samples, then more while the next one
    would still end within ``run.seconds``."""
    samples: List[Sample] = []
    measuring = time.perf_counter()
    while True:
        began = time.perf_counter()
        samples.append(take(len(samples)))
        now = time.perf_counter()
        if not measure.another_sample(len(samples), now - measuring,
                                      now - began, run.seconds):
            return samples


def describe(samples: Sequence[Sample]) -> Dict[str, Any]:
    """Median and quartiles of the corrected samples, with the raw ones."""
    corrected = measure.summary([s.corrected_s for s in samples])
    return {
        "median_s": corrected["median"], "q1_s": corrected["q1"],
        "q3_s": corrected["q3"], "n": corrected["n"],
        "raw_median_s": measure.summary([s.raw_s for s in samples])["median"],
        "raw_s": [s.raw_s for s in samples],
        "corrected_s": [s.corrected_s for s in samples],
    }


def setup_samples(run: Run) -> Dict[str, Any]:
    """``SETUP_REPEATS`` set-ups, each in a fresh interpreter."""
    argv = ["setup", "--workload", run.workload]
    if run.seed is not None and run.workload in SIM_WORKLOADS:
        argv += ["--seed", str(run.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        child, timing = run.child_json(argv, run.scratch / "setup.json")
        if child.returncode != 0:
            raise BenchError(f"{run.workload}: set-up failed:\n"
                             f"{child.output[-TAIL:]}")
        samples.append(Sample(timing["raw_s"], timing["corrected_s"]))
    return describe(samples)


def record_end_to_end(run: Run, wall: Dict[str, Any], setup: Dict[str, Any],
                      instructions: int, peak_rss_mb: float) -> None:
    run.details.update(wall=wall, setup=setup)
    run.metrics.update({
        "wall_s": wall["median_s"],
        "sim_insts_per_s": instructions / wall["median_s"],
        "setup_s": setup["median_s"],
        "peak_rss_mb": peak_rss_mb,
    })


def check_closure(run: Run, trace: Dict[str, Any], what: str) -> None:
    error = layers.closure_error(trace)
    run.require(error < 0.01, f"{what}: layer self times + other miss "
                              f"the traced wall by {error:.2%}")


def record_per_layer(run: Run, traced: Dict[str, Any], reference_s: float,
                     counts: Dict[str, float]) -> None:
    """Per-layer metrics of a traced child's report; ``reference_s`` is
    the corrected time of the same work untraced, for the tracer's
    overhead."""
    trace = traced["trace"]
    scale = traced["corrected_s"] / traced["raw_s"]
    check_closure(run, trace, "traced sample")
    run.metrics.update(layers.layer_metrics(
        trace, traced.get("cache_hits", 0), scale))
    run.metrics["trace.overhead"] = \
        (traced["corrected_s"] - reference_s) / reference_s
    run.metrics.update(counts)
    run.details["trace"] = trace
    run.details["layer_table"] = layers.layer_table(trace)


# ---------------------------------------------------------------------------
# Simulation workloads: passes of Machine.run over a suite, in a child.
# ---------------------------------------------------------------------------


def add_operations(run: Run, payload: Dict[str, Any]) -> None:
    """The simulated points a ``sim`` child checked."""
    run.attempted += payload["attempted"]
    run.failed += payload["failed"]
    run.problems.extend(payload["errors"])


def sim_workload(run: Run) -> None:
    setup = setup_samples(run)
    what = ["--workload", run.workload]
    if run.seed is not None:
        what += ["--seed", str(run.seed)]
    child, result = run.child_json(
        ["sim", *what, "--seconds", str(run.seconds)],
        run.scratch / "sim.json")
    add_operations(run, result)
    if not result["points"]:
        raise BenchError(f"{run.workload}: no point simulated")
    wall = describe([Sample(*timing) for timing in result["passes"]])
    run.details["sim_digest"] = hashlib.sha256(
        json.dumps(result["points"]).encode()).hexdigest()
    record_end_to_end(run, wall, setup, result["counts"]["sim.instructions"],
                      child.maxrss_mb - measure.FOOTPRINT_MB)
    if not run.trace:
        return

    _, traced = run.child_json(["sim", *what, "--traced"],
                               run.scratch / "traced.json")
    add_operations(run, traced)
    run.require(traced["points"] == result["points"],
                "the traced run simulated different cycles or instructions")
    # The traced region is set-up after imports plus one pass.
    reference_s = wall["median_s"] + result["setup_region_s"] \
        * wall["median_s"] / wall["raw_median_s"]
    record_per_layer(run, traced, reference_s, traced["counts"])


# ---------------------------------------------------------------------------
# Suite workloads: the `repro experiments run` command line.
# ---------------------------------------------------------------------------


def suite_selection(smoke: bool) -> Tuple[List[str], List[str]]:
    """(the command line's experiment arguments, the names of the
    experiments they run)."""
    if smoke:
        from repro.experiments import list_specs

        return ["--all", "--smoke"], [spec.name for spec in list_specs()]
    return [",".join(FULL_WARM_EXPERIMENTS)], list(FULL_WARM_EXPERIMENTS)


def points_of(document: Dict[str, Any]) -> List[list]:
    """(machine, program, key, cycles, instructions) of every point."""
    return [[p["machine"], p["program"], p.get("key"), p["cycles"],
             p["instructions"]] for p in document["points"]]


def suite_run(run: Run, tag: str, cache_dir: pathlib.Path, smoke: bool,
              expected: Optional[Dict[str, List[list]]],
              traced: bool = False):
    """``repro experiments run ... --jobs 1`` in a fresh process against
    ``cache_dir``.  Every experiment is one operation: it must write a
    schema-valid result document whose points equal ``expected`` (when
    given), and the run must exit 0.  Returns (child, its JSON,
    documents by experiment name)."""
    from repro.experiments import ResultSchemaError, load_result_doc

    selection, names = suite_selection(smoke)
    results_dir = run.scratch / f"results-{tag}"
    argv = ["suite", "--", "experiments", "run", *selection, "--jobs", "1"]
    if traced:
        argv.insert(1, "--traced")
    env = {"REPRO_CACHE_DIR": str(cache_dir),
           "REPRO_RESULTS_DIR": str(results_dir)}
    child, payload = run.child_json(argv, run.scratch / f"{tag}.json",
                                    env=env)
    documents = {}
    for name in names:
        try:
            documents[name] = load_result_doc(name, results_dir)
        except ResultSchemaError as exc:
            run.operation(False, f"{tag}: {exc}")
            continue
        run.operation(
            expected is None or points_of(documents[name]) == expected.get(
                name), f"{tag}: {name}: result points differ from the "
                       f"reference run")
    shutil.rmtree(results_dir, ignore_errors=True)
    run.require(payload["rc"] == 0, f"{tag}: exit {payload['rc']}:\n"
                                    f"{child.output[-TAIL:]}")
    return child, payload, documents


def document_counts(documents: Dict[str, Any]) -> Dict[str, float]:
    counts = layers.SimCounts()
    for doc in documents.values():
        for point in doc["points"]:
            counts.add_point(point)
    return counts.metrics()


def suite_workload(run: Run, smoke: bool) -> None:
    """Smoke scale against an empty cache per sample, or full scale
    against a cache that one cold run of the same experiments primed
    (untimed; traced with ``--trace 1``)."""
    setup = setup_samples(run)
    expected: Optional[Dict[str, List[list]]] = None
    caches: List[pathlib.Path] = []
    peaks: List[float] = []

    def next_cache() -> pathlib.Path:
        if not smoke and caches:
            return caches[0]
        if caches:  # keep only the latest cold cache
            shutil.rmtree(caches[-1], ignore_errors=True)
        caches.append(run.scratch / f"cache-{len(caches)}")
        return caches[-1]

    def points(documents: Dict[str, Any]) -> Dict[str, List[list]]:
        return {name: points_of(document)
                for name, document in documents.items()}

    if not smoke:
        _, prime, documents = suite_run(run, "prime", next_cache(), smoke,
                                        None, traced=run.trace)
        expected = points(documents)
        run.details["prime_s"] = prime["corrected_s"]
        if run.trace:
            check_closure(run, prime["trace"], "priming run")
            run.details["prime_layer_table"] = \
                layers.layer_table(prime["trace"])

    def take(index: int) -> Sample:
        nonlocal expected
        child, payload, documents = suite_run(
            run, f"sample-{index}", next_cache(), smoke, expected)
        if expected is None:
            expected = points(documents)
        peaks.append(child.maxrss_mb - measure.FOOTPRINT_MB)
        run.details.setdefault("process_wall_s", []).append(child.wall_s)
        return Sample(payload["raw_s"], payload["corrected_s"])

    walls = timed_samples(run, take)
    run.details["points_digest"] = hashlib.sha256(
        json.dumps(expected).encode()).hexdigest()
    instructions = sum(point[4] for points in expected.values()
                       for point in points)
    # The largest peak: a child's peak RSS takes one of two values about
    # 3 MB apart from sample to sample, so a median would flip between
    # runs.
    record_end_to_end(run, describe(walls), setup, instructions, max(peaks))

    if smoke:
        # Replay the governed baseline corpus against the cache the last
        # cold sample filled (untimed).
        verify = run.spawn([sys.executable, "-m", "repro", "baseline",
                            "verify", "--all", "--smoke", "--jobs", "1"],
                           env={"REPRO_CACHE_DIR": str(caches[-1])})
        lines = [line for line in verify.output.splitlines()
                 if line.startswith("baseline verify:")]
        run.details["baseline_verify"] = lines[-1] if lines else ""
        run.require(verify.returncode == 0, f"repro baseline verify "
                                            f"failed:\n"
                                            f"{verify.output[-TAIL:]}")
    if not run.trace:
        return

    _, traced, documents = suite_run(run, "traced", next_cache(), smoke,
                                     expected, traced=True)
    # The simulated totals come from every result point, cache hits
    # included; the components' counters from the core runs traced.
    counts = traced["counts"]
    totals = document_counts(documents)
    for name in ("sim.instructions", "sim.cycles", "sim.skip_fraction"):
        counts[name] = totals[name]
    record_per_layer(run, traced, run.metrics["wall_s"], counts)


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------

WORKLOADS: Dict[str, Callable[[Run], None]] = {
    layers.SST: sim_workload,
    layers.COMPUTE: sim_workload,
    layers.SMOKE_COLD: lambda run: suite_workload(run, smoke=True),
    layers.FULL_WARM: lambda run: suite_workload(run, smoke=False),
}


def remove_stale_work() -> None:
    """Scratch left by runs that were killed (their pid is gone)."""
    for path in WORK.glob("run-tmp-*"):
        pid = int(path.name.rsplit("-", 1)[-1])
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass


def git_status() -> Optional[str]:
    """The working tree's status, when this is a git checkout."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    return subprocess.run(
        ["git", "--no-optional-locks", "status", "--porcelain",
         "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True, check=False).stdout


def host() -> Dict[str, Any]:
    """What decides which code paths run and how fast."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        # numpy decides whether ParallelRunner's lane-batched timing
        # path can fire at all.
        "numpy": importlib.util.find_spec("numpy") is not None,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ref_probe_s": measure.REF_PROBE_S,
    }


def measure_workload(workload: str, args: argparse.Namespace
                     ) -> Dict[str, Any]:
    scratch = WORK / f"run-tmp-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    run = Run(workload, args.seed, args.seconds, bool(args.trace), scratch)
    try:
        WORKLOADS[workload](run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    wanted = SPEC["per_layer" if run.trace else "end_to_end"]
    missing = [metric["name"] for metric in wanted
               if metric["name"] not in run.metrics]
    if missing or not run.attempted:
        raise BenchError(f"{workload}: not measured: "
                         f"{', '.join(missing) or 'any operation'}")
    return {
        "workload": workload,
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        # Failed over attempted operations: simulated points on the
        # simulation workloads, experiments on the suite workloads.
        "error_rate": run.failed / run.attempted,
        "problems": run.problems,
        "metrics": {metric["name"]: {"value": run.metrics[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in wanted},
        "all_metrics": run.metrics,
        "details": run.details,
    }


def print_report(report: Dict[str, Any]) -> None:
    print(f"== {report['workload']}: attempted {report['attempted']}, "
          f"failed {report['failed']}")
    for problem in report["problems"]:
        print(f"   FAILED: {problem}")
    details = report["details"]
    for key in ("wall", "setup"):
        if key in details:
            d = details[key]
            print(f"   {key}: {d['median_s']:.4f}s corrected (q1 "
                  f"{d['q1_s']:.4f}, q3 {d['q3_s']:.4f}, n={d['n']}; raw "
                  f"{d['raw_median_s']:.4f}s)")
    for key in ("prime_s", "sim_digest", "points_digest", "baseline_verify"):
        if key in details:
            print(f"   {key}: {details[key]}")
    for title, key in (("priming run", "prime_layer_table"),
                       ("traced sample", "layer_table")):
        if key in details:
            print(f"   {title}:")
            for line in details[key]:
                print(f"   {line}")
    for name, metric in report["metrics"].items():
        print(f"   {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"   {'error_rate':32s} {report['error_rate']:>16.6g} fraction")


def main(argv: Optional[List[str]] = None) -> int:
    names = [workload["name"] for workload in SPEC["workloads"]]
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=None,
                        help="program-generation seed for the simulation "
                             "workloads (default: the generators' own)")
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="measuring time per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: report per-layer metrics from a traced "
                             "sample")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the full report here as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    remove_stale_work()
    before = git_status()
    reports = []
    try:
        for workload in ([args.workload] if args.workload else names):
            reports.append(measure_workload(workload, args))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    after = git_status()

    info = host()
    print(f"bench: seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} host={json.dumps(info, sort_keys=True)}")
    for report in reports:
        print_report(report)
    if before != after:
        print(f"FAILED: the run changed the git working tree:\n{after}")
    correct = before == after and all(r["correct"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in reports for name, metric in r["metrics"].items()}
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"host": info, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "reports": reports}, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
