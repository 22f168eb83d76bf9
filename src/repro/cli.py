"""The ``repro`` command-line interface.

Installed as a console script (``pyproject.toml [project.scripts]``)
and equally runnable as ``python -m repro``.  Subcommands:

``repro experiments list [--tag TAG] [--json]``
    Show every registered experiment (id, tags, title).

``repro experiments run [IDS...] [--all] [--smoke] [--jobs N] ...``
    Run experiments through the
    :class:`~repro.experiments.engine.ExperimentEngine`.  Each one
    writes its text table and schema-versioned JSON result document
    under ``benchmarks/results/`` (cwd-independent — the directory is
    resolved through :mod:`repro.experiments.results`).  ``--jobs N``
    overlaps N whole experiments in worker processes; each experiment
    simulates its points in process, one after another.

``repro experiments report [IDS...] [--tables] [--results-dir DIR]``
    Summarize stored result documents: mode, wall time, point count,
    and which expectation predicates held.

``repro baseline capture|verify``
    Drive the behavioral baseline firewall (:mod:`repro.regress`).
    ``verify`` runs the experiment corpus (documents are *not*
    written; ``--jobs N`` experiments at a time, as for ``experiments
    run``) and exits 1 on any divergence from a record in
    ``benchmarks/baselines/``; its ``FAIL`` line counts the divergent
    observations per behaviour field.  ``capture`` runs the corpus
    serially and rewrites every record whose file differs from what it
    observed, printing one ``UPDATED`` line per rewritten record;
    after an intentional behavior change, committing those rewritten
    records is the green path, and their diff is what review approves.
    A warm ``verify`` compares every cached point and multicore run
    with its record, so it also checks the result cache.

``repro lint [NAMES...] [--all] [--json]``
    Run the static verifier (:mod:`repro.analysis.proglint`) and the
    speculative-leak taint pass (:mod:`repro.analysis.taint`) over
    registered workloads (suite + analysis gadgets).  Exit 1 when any
    diagnostic is reported.

``repro fuzz [--max-examples N] [--out PATH]``
    Drive the differential program fuzzer
    (:mod:`repro.workloads.fuzz`): random proglint-clean programs
    through every core variant, checked against the golden
    interpreter, plus an SST leg with the sanitizer and taint tracker
    attached that must also match the plain SST leg's cycles.  A
    divergence is shrunk to a minimal program, printed, optionally
    written as a JSON artifact, and exits 1.

Expectation failures are *reported* but do not fail a run by default:
at smoke scale the qualitative shapes are indicative only.  Pass
``--strict-expectations`` (sensible at full scale) to turn them into
a non-zero exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import pathlib
import sys
import time
import traceback
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.config import DEFAULT_MAX_INSTRUCTIONS
from repro.experiments import (
    ExperimentEngine,
    ResultSchemaError,
    default_results_dir,
    get,
    list_specs,
    load_result_doc,
)
from repro.experiments.spec import ExperimentLookupError
from repro.regress.firewall import BaselineFirewall
from repro.regress.store import BaselineStore


def _select_specs(ids: List[str], run_all: bool, tag: Optional[str] = None):
    """Resolve id arguments (``e3``, ``e8,e9``, ``e4_dq_size``) to specs."""
    specs = list_specs()
    if tag:
        specs = [spec for spec in specs if tag in spec.tags]
    if run_all or not ids:
        return specs
    tokens: List[str] = []
    for argument in ids:
        tokens.extend(token.strip() for token in argument.split(",")
                      if token.strip())
    chosen = []
    seen = set()
    for token in tokens:
        spec = get(token)
        if spec.eid not in seen:
            seen.add(spec.eid)
            chosen.append(spec)
    return chosen


# ---------------------------------------------------------------------------
# experiments run
# ---------------------------------------------------------------------------


class _ExperimentRun(NamedTuple):
    """One experiment's run, as :func:`_run_experiments` yields it."""

    seconds: float
    error: Optional[str]  # the traceback, when the experiment raised
    failed: List[str]     # expectation predicates that missed
    firewall: Optional[BaselineFirewall]


def _run_one(payload: Tuple[str, Dict[str, Any], Optional[Dict[str, Any]]]
             ) -> _ExperimentRun:
    """Run one experiment in a fresh engine; never raises."""
    eid, engine_kwargs, firewall_spec = payload
    firewall: Optional[BaselineFirewall] = None
    if firewall_spec is not None:
        firewall = BaselineFirewall(BaselineStore(firewall_spec["root"]),
                                    mode=firewall_spec["mode"])
    started = time.perf_counter()
    error: Optional[str] = None
    failed: List[str] = []
    try:
        doc = ExperimentEngine(firewall=firewall, **engine_kwargs).run(eid)
        failed = [outcome["name"] for outcome in doc["expectations"]
                  if not outcome["passed"]]
    except Exception:  # noqa: BLE001 — one experiment must not kill the run
        error = traceback.format_exc()
    return _ExperimentRun(time.perf_counter() - started, error, failed,
                          firewall)


def _worker_count(jobs: int, experiments: int) -> int:
    """``--jobs`` as a process count: 0 (or less) means every CPU, and
    never more processes than experiments."""
    if jobs <= 0:
        jobs = multiprocessing.cpu_count()
    return max(1, min(jobs, experiments))


def _run_experiments(specs: List[Any], engine_kwargs: Dict[str, Any],
                     jobs: int,
                     firewall_spec: Optional[Dict[str, Any]] = None
                     ) -> Iterator[_ExperimentRun]:
    """Run ``specs`` ``jobs`` experiments at a time; yields one run per
    spec, in spec order.

    Each experiment gets its own engine and, when ``firewall_spec``
    (``root``, ``mode``) is given, its own
    :class:`~repro.regress.firewall.BaselineFirewall` on that store,
    returned in its run for the caller to merge.  With more than
    one job the experiments run in forked worker processes, each
    simulating its points in process.
    """
    payloads = [(spec.eid, engine_kwargs, firewall_spec) for spec in specs]
    workers = _worker_count(jobs, len(specs))
    if workers == 1:
        yield from map(_run_one, payloads)
        return
    with multiprocessing.get_context("fork").Pool(processes=workers) \
            as pool:
        yield from pool.imap(_run_one, payloads)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.sanitize:
        args.smoke = True
        args.no_cache = True
    try:
        specs = _select_specs(args.ids, args.all, args.tag)
    except ExperimentLookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("error: no experiments selected", file=sys.stderr)
        return 2

    engine_kwargs: Dict[str, Any] = {
        "smoke": bool(args.smoke),
        "max_instructions": args.max_instructions,
        "results_dir": args.results_dir,
        "echo": bool(args.echo),
    }
    if args.no_cache:
        engine_kwargs["cache"] = None
    jobs = _worker_count(args.jobs, len(specs))

    mode = "smoke" if args.smoke else "full"
    sanitize_note = ", sanitize=on" if args.sanitize else ""
    print(f"running {len(specs)} experiments ({mode} scale, "
          f"jobs={jobs}, cache={'off' if args.no_cache else 'on'}"
          f"{sanitize_note})")

    started = time.perf_counter()
    errors = []
    expectation_misses = []
    with contextlib.ExitStack() as scope:
        if args.sanitize:
            # The cores read REPRO_SANITIZE when they are built: scope
            # it to this call (forked workers inherit it), leaving the
            # caller's environment as it was found.
            from unittest import mock

            scope.enter_context(
                mock.patch.dict(os.environ, REPRO_SANITIZE="1"))
        for run, spec in zip(_run_experiments(specs, engine_kwargs, jobs),
                             specs):
            if run.error:
                status = "FAIL"
                errors.append((spec.name, run.error))
            elif run.failed:
                status = "SHAPE"
                expectation_misses.append((spec.name, run.failed))
            else:
                status = "ok"
            note = f"  ({', '.join(run.failed)})" if run.failed else ""
            print(f"  {status:5s} {spec.name:26s} {run.seconds:7.2f}s{note}")
    total = time.perf_counter() - started
    print(f"total: {total:.2f}s wall for {len(specs)} experiments")

    for name, error in errors:
        print(f"\n--- {name} failed ---\n{error}", file=sys.stderr)
    if expectation_misses:
        print(f"{len(expectation_misses)} experiment(s) missed "
              f"expectations ({mode} scale"
              f"{'; indicative only' if args.smoke else ''})")
    if args.sanitize and not errors:
        print("sanitize: zero invariant violations across "
              f"{len(specs)} experiments")
    if errors:
        return 1
    if args.strict_expectations and expectation_misses:
        return 1
    return 0


# ---------------------------------------------------------------------------
# experiments list / report
# ---------------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    specs = _select_specs([], True, args.tag)
    if args.json:
        print(json.dumps([
            {"id": spec.eid, "name": spec.name, "title": spec.title,
             "tags": list(spec.tags),
             "expectations": [e.name for e in spec.expectations]}
            for spec in specs
        ], indent=2))
        return 0
    for spec in specs:
        tags = ",".join(spec.tags)
        print(f"{spec.eid:>4s}  {spec.name:26s} [{tags}]  {spec.title}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        specs = _select_specs(args.ids, not args.ids, None)
    except ExperimentLookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results_dir = args.results_dir or default_results_dir()
    missing = 0
    for spec in specs:
        try:
            doc = load_result_doc(spec.name, results_dir)
        except ResultSchemaError as exc:
            print(f"{spec.eid:>4s}  {spec.name:26s} -- {exc}")
            missing += 1
            continue
        failed = [outcome["name"] for outcome in doc["expectations"]
                  if not outcome["passed"]]
        status = "ok" if doc["ok"] else "SHAPE"
        note = f"  failed: {', '.join(failed)}" if failed else ""
        print(f"{spec.eid:>4s}  {spec.name:26s} {status:5s} "
              f"{doc['mode']:5s} {doc['wall_seconds']:8.2f}s "
              f"{len(doc['points']):3d} points{note}")
        if args.tables:
            print()
            print(doc["table"]["rendered"])
            print()
    return 1 if missing else 0


# ---------------------------------------------------------------------------
# baseline capture / verify
# ---------------------------------------------------------------------------


def _baseline_corpus_run(args: argparse.Namespace, mode: str) -> int:
    """Shared engine for ``baseline capture`` and ``baseline verify``:
    run the experiment corpus (no documents written), one firewall per
    experiment, merge their observations, then report."""
    from repro.regress.semid import dump_stable

    try:
        specs = _select_specs(args.ids, args.all, None)
    except ExperimentLookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("error: no experiments selected", file=sys.stderr)
        return 2

    firewall = BaselineFirewall(BaselineStore(args.baseline_dir),
                                mode=mode)
    engine_kwargs: Dict[str, Any] = {"smoke": bool(args.smoke),
                                      "write": False}
    firewall_spec: Dict[str, Any] = {"root": firewall.store.root,
                                     "mode": mode}
    # capture writes the store, which has no cross-process locking, so
    # only verify runs experiments side by side.
    jobs = getattr(args, "jobs", 1)
    errors = 0
    for run, spec in zip(_run_experiments(specs, engine_kwargs, jobs,
                                          firewall_spec), specs):
        # Divergences are appended in spec order whatever the job
        # count, so the report is deterministic.
        assert run.firewall is not None
        firewall.merge(run.firewall)
        if run.error:
            errors += 1
            print(f"  FAIL  {spec.name}\n{run.error}", file=sys.stderr)
            continue
        print(f"  {mode:7s} {spec.name:26s} {run.seconds:6.2f}s")

    stats = firewall.stats
    if args.report is not None:
        out = pathlib.Path(args.report)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(dump_stable(firewall.report()))
        print(f"diff report written to {out}")
    counts = ", ".join(f"{name}={value}"
                       for name, value in stats.as_dict().items() if value)
    print(f"baseline {mode}: {stats.observed} observations "
          f"({counts or 'none'}) in {firewall.store.root}")
    label = "UPDATED" if mode == "capture" else "DIVERGED"
    for divergence in firewall.divergences:
        print(f"  {label} {divergence.summary()}")

    if errors:
        return 1
    if mode == "capture":
        if stats.updated:
            print(f"{stats.updated} record(s) rewritten — review them "
                  f"with `git diff` before committing")
        return 0
    # verify: red on any divergence, and on an empty run (a corpus that
    # verified nothing protects nothing).
    if stats.divergent:
        by_field = ", ".join(f"{field} {count}" for field, count
                             in firewall.divergent_fields().items())
        print(f"FAIL: {stats.divergent} divergence(s) from stored "
              f"baselines ({by_field}) — if intentional, run `repro "
              f"baseline capture` and commit the rewritten records",
              file=sys.stderr)
        return 1
    if not (stats.verified or stats.unseen):
        print("FAIL: no baseline observations at all", file=sys.stderr)
        return 1
    if stats.verified == 0:
        print("FAIL: no stored baseline matched any observation "
              "(empty or mislocated store? run `repro baseline "
              "capture` first)", file=sys.stderr)
        return 1
    return 0


def _cmd_baseline_capture(args: argparse.Namespace) -> int:
    return _baseline_corpus_run(args, "capture")


def _cmd_baseline_verify(args: argparse.Namespace) -> int:
    return _baseline_corpus_run(args, "verify")


# ---------------------------------------------------------------------------
# lint / fuzz
# ---------------------------------------------------------------------------


def _lintable_programs(args: argparse.Namespace):
    """Resolve lint targets: registered workload names."""
    from repro.workloads import ANALYSIS_WORKLOADS, WORKLOAD_FACTORIES

    registry = {**WORKLOAD_FACTORIES, **ANALYSIS_WORKLOADS}
    names = sorted(registry) if args.all else list(args.names)
    if not names:
        raise SystemExit(
            "repro lint: nothing to lint — pass workload names or --all"
        )
    programs = []
    for name in names:
        factory = registry.get(name)
        if factory is None:
            known = ", ".join(sorted(registry))
            raise SystemExit(
                f"repro lint: unknown workload {name!r} (known: {known})"
            )
        programs.append(factory())
    return programs


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_taint
    from repro.analysis.proglint import lint_program

    findings = 0
    documents = []
    for program in _lintable_programs(args):
        diagnostics = lint_program(program)
        report = analyze_taint(program)
        diagnostics.extend(report.gadgets)
        findings += len(diagnostics)
        documents.append({
            "program": program.name,
            "instructions": len(program.instructions),
            "has_secrets": report.has_secrets,
            "transient_pcs": len(report.transient_pcs),
            "diagnostics": [
                {"kind": diag.kind.value, "pc": diag.pc,
                 "message": diag.message}
                for diag in diagnostics
            ],
        })
        if not args.json:
            verdict = ("clean" if not diagnostics
                       else f"{len(diagnostics)} finding(s)")
            print(f"{program.name}: {verdict}")
            for diag in diagnostics:
                print(f"  {diag}")
    if args.json:
        print(json.dumps({"programs": documents,
                          "findings": findings}, indent=2))
    return 1 if findings else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.workloads.fuzz import HAVE_HYPOTHESIS, fuzz

    if not HAVE_HYPOTHESIS:
        print("repro fuzz: hypothesis is not installed", file=sys.stderr)
        return 2
    failure = fuzz(max_examples=args.max_examples)
    if failure is None:
        print(f"fuzz: no divergence in {args.max_examples} examples")
        return 0
    summary = failure.summary()
    print("fuzz: DIVERGENCE (shrunk to minimal program)")
    print(f"  {summary['detail']}")
    print(f"  {summary['instructions']} instructions, "
          f"loop x{summary['loop_count']}, "
          f"{summary['body_atoms']} body atom(s)")
    for line in summary["listing"]:
        print(f"    {line}")
    if args.out is not None:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"  counterexample written to {out}")
    return 1


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SST/ROCK reproduction command-line interface.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    experiments = top.add_parser(
        "experiments", help="the reconstructed 19-experiment evaluation")
    sub = experiments.add_subparsers(dest="subcommand", required=True)

    cmd_list = sub.add_parser("list", help="show registered experiments")
    cmd_list.add_argument("--tag", default=None,
                          help="only experiments carrying this tag")
    cmd_list.add_argument("--json", action="store_true",
                          help="machine-readable listing")
    cmd_list.set_defaults(func=_cmd_list)

    cmd_run = sub.add_parser(
        "run", help="run experiments (tables + JSON documents land in "
                    "benchmarks/results/)")
    cmd_run.add_argument("ids", nargs="*", metavar="ID",
                         help="experiment ids (e3 e8, or e3,e8; "
                              "default: all)")
    cmd_run.add_argument("--all", action="store_true",
                         help="run every registered experiment")
    cmd_run.add_argument("--tag", default=None,
                         help="restrict to experiments carrying this tag")
    cmd_run.add_argument("--smoke", action="store_true",
                         help="shrink every workload so the suite runs "
                              "in seconds")
    cmd_run.add_argument("--jobs", type=int, default=1,
                         help="experiments to run concurrently "
                              "(default: 1; 0 = all cores)")
    cmd_run.add_argument("--no-cache", action="store_true",
                         help="disable the result cache (like "
                              "REPRO_CACHE=0)")
    cmd_run.add_argument("--max-instructions", type=int,
                         default=DEFAULT_MAX_INSTRUCTIONS,
                         help="per-run instruction budget (default: "
                              "50M, the budget the baseline records "
                              "are keyed at)")
    cmd_run.add_argument("--results-dir", type=pathlib.Path, default=None,
                         help="where tables and JSON documents land "
                              "(default: the checkout's "
                              "benchmarks/results/)")
    cmd_run.add_argument("--sanitize", action="store_true",
                         help="run with REPRO_SANITIZE=1 (per-event "
                              "invariant checking; implies --smoke "
                              "--no-cache, since cached results would "
                              "skip the checked simulations)")
    cmd_run.add_argument("--strict-expectations", action="store_true",
                         help="exit non-zero when an expectation "
                              "predicate fails (use at full scale)")
    cmd_run.add_argument("--echo", action="store_true",
                         help="print each experiment's table")
    cmd_run.set_defaults(func=_cmd_run)

    cmd_report = sub.add_parser(
        "report", help="summarize stored JSON result documents")
    cmd_report.add_argument("ids", nargs="*", metavar="ID",
                            help="experiment ids (default: all)")
    cmd_report.add_argument("--results-dir", type=pathlib.Path,
                            default=None,
                            help="where to read documents from")
    cmd_report.add_argument("--tables", action="store_true",
                            help="also print each stored table")
    cmd_report.set_defaults(func=_cmd_report)

    baseline = top.add_parser(
        "baseline", help="behavioral baseline firewall: capture/verify "
                         "simulation behavior against the records in "
                         "benchmarks/baselines/")
    baseline_sub = baseline.add_subparsers(dest="subcommand",
                                           required=True)

    def _add_corpus_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--baseline-dir", type=pathlib.Path,
                         default=None,
                         help="baseline store (default: "
                              "benchmarks/baselines/)")
        sub.add_argument("ids", nargs="*", metavar="ID",
                         help="experiment ids (default: all)")
        sub.add_argument("--all", action="store_true",
                         help="run every registered experiment")
        sub.add_argument("--smoke", action="store_true",
                         help="tiny workloads — the committed corpus "
                              "scale")
        sub.add_argument("--report", default=None, metavar="PATH",
                         help="write the JSON diff report to PATH "
                              "(the CI artifact)")

    cmd_bl_capture = baseline_sub.add_parser(
        "capture", help="run the corpus and write every record whose "
                        "file differs from the observed behavior "
                        "(commit the rewritten records)")
    _add_corpus_args(cmd_bl_capture)
    cmd_bl_capture.set_defaults(func=_cmd_baseline_capture)

    cmd_bl_verify = baseline_sub.add_parser(
        "verify", help="run the corpus and check behavior against "
                       "stored baselines (exit 1 on any divergence)")
    _add_corpus_args(cmd_bl_verify)
    cmd_bl_verify.add_argument("--jobs", type=int, default=1,
                               help="experiments to verify concurrently "
                                    "(default: 1; 0 = all cores)")
    cmd_bl_verify.set_defaults(func=_cmd_baseline_verify)

    cmd_lint = top.add_parser(
        "lint", help="static verifier + speculative-leak taint pass "
                     "over registered workloads")
    cmd_lint.add_argument("names", nargs="*", metavar="NAME",
                          help="registered workload names (suite + "
                               "spec-leak gadgets)")
    cmd_lint.add_argument("--all", action="store_true",
                          help="lint every registered workload")
    cmd_lint.add_argument("--json", action="store_true",
                          help="machine-readable report")
    cmd_lint.set_defaults(func=_cmd_lint)

    cmd_fuzz = top.add_parser(
        "fuzz", help="differential program fuzzer: every core variant "
                     "vs. the golden interpreter, shrunk on failure")
    cmd_fuzz.add_argument("--max-examples", type=int, default=100,
                          help="random program shapes to try "
                               "(default: 100)")
    cmd_fuzz.add_argument("--out", default=None, metavar="PATH",
                          help="write a shrunk counterexample as JSON "
                               "to PATH")
    cmd_fuzz.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
