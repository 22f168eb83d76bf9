"""E19 — speculative-leak taint analysis on Spectre-style gadgets.

Not a performance experiment: a security characterization of the SST
pipeline itself.  Execute-ahead squashes architectural effects on
rollback, but cache fills issued by the squashed strand survive — the
transmission channel of bounds-check-bypass attacks.  This experiment
runs the three seeded gadget workloads (:mod:`repro.workloads.\
spec_leak`) under the static taint pass and the dynamic tracker on an
SST machine and a scout-only machine, and checks the containment
story end to end:

* the classic tainted-address *load* gadget is flagged statically and
  observed dynamically on both machines,
* the value-flow-only variant is clean everywhere (the store buffer
  contains transient stores entirely),
* the tainted-address *store* variant is a static-only verdict on SST
  (stores park in the store buffer, no fill) but leaks under scout,
  whose stores prefetch their line for ownership,
* architectural state stays golden-identical in every run — the leak
  is purely microarchitectural.

Runs :func:`~repro.sim.runner.simulate` directly (not ``env.run``):
the taint report rides in ``result.extra`` and must come from a live
run with ``REPRO_TAINT=1``, not from the result cache.
"""

import os

from repro.analysis import analyze_taint
from repro.config import MachineConfig, SSTConfig
from repro.experiments.spec import expect, experiment
from repro.sim.runner import simulate
from repro.stats.report import Table
from repro.workloads.spec_leak import ANALYSIS_WORKLOADS


def _machines(env):
    return (
        ("sst", MachineConfig(
            hierarchy=env.hierarchy(), sst=SSTConfig(), name="sst")),
        ("scout", MachineConfig(
            hierarchy=env.hierarchy(),
            sst=SSTConfig(checkpoints=1, scout_only=True), name="scout")),
    )


@experiment(
    eid="e19", slug="spec_leak",
    title="Speculative-leak taint analysis on bounds-check-bypass gadgets",
    tags=("sst", "scout", "security", "analysis"),
    expectations=(
        expect("gadget_flagged_statically",
               "the tainted-address load gadget is found by the static "
               "pass alone",
               lambda m: m["static"]["spec-leak-gadget"]["gadgets"] >= 1),
        expect("gadget_observed_on_sst",
               "the SST ahead strand actually fills the secret-indexed "
               "line before the squash",
               lambda m: m["dynamic"]["spec-leak-gadget"]["sst"]["fills"]
               >= 1),
        expect("scout_observes_gadget",
               "prefetch-only scouting leaks through the same gadget",
               lambda m: m["dynamic"]["spec-leak-gadget"]["scout"]["fills"]
               >= 1),
        expect("safe_variant_is_clean",
               "pure value flow is contained: no static gadgets, no "
               "dynamic fills anywhere",
               lambda m: m["static"]["spec-leak-safe"]["gadgets"] == 0
               and all(row["fills"] == 0
                       for row in m["dynamic"]["spec-leak-safe"].values())),
        expect("store_gadget_contained_on_sst",
               "a tainted-address store is statically a gadget but the "
               "store buffer contains it on the SST machine",
               lambda m: m["static"]["spec-leak-store"]["gadgets"] >= 1
               and m["dynamic"]["spec-leak-store"]["sst"]["fills"] == 0),
        expect("store_gadget_leaks_under_scout",
               "scout stores prefetch for ownership, so the same store "
               "gadget does fill under scout",
               lambda m: m["dynamic"]["spec-leak-store"]["scout"]["fills"]
               >= 1),
        expect("static_dynamic_agree",
               "every dynamic observation is inside the static verdict "
               "(the soundness contract)",
               lambda m: all(row["agreement"]
                             for rows in m["dynamic"].values()
                             for row in rows.values())),
    ),
)
def build(env):
    table = Table(
        "E19: speculative-leak taint analysis",
        ["workload", "machine", "static gadgets", "tainted fills",
         "observed pcs", "static-only pcs", "agree"],
    )
    static = {}
    dynamic = {}
    saved = os.environ.get("REPRO_TAINT")
    os.environ["REPRO_TAINT"] = "1"
    try:
        for name, factory in sorted(ANALYSIS_WORKLOADS.items()):
            program = factory()
            report = analyze_taint(program)
            static[name] = {
                "gadgets": len(report.gadgets),
                "gadget_pcs": sorted(report.gadget_pcs),
                "transient_pcs": len(report.transient_pcs),
            }
            dynamic[name] = {}
            for mname, machine in _machines(env):
                # verify=True proves containment: architectural state
                # matches the golden interpreter despite the fills.
                result = simulate(machine, program, verify=True)
                taint = result.extra["taint"]
                dynamic[name][mname] = {
                    "fills": taint["transient_tainted_fills"],
                    "observed_pcs": taint["observed_gadget_pcs"],
                    "static_only_pcs": taint["static_only_pcs"],
                    "agreement": taint["agreement"],
                }
                table.add_row(
                    name, mname, len(report.gadgets),
                    taint["transient_tainted_fills"],
                    ",".join(map(str, taint["observed_gadget_pcs"])) or "-",
                    ",".join(map(str, taint["static_only_pcs"])) or "-",
                    "yes" if taint["agreement"] else "NO",
                )
    finally:
        if saved is None:
            os.environ.pop("REPRO_TAINT", None)
        else:
            os.environ["REPRO_TAINT"] = saved
    return table, {"static": static, "dynamic": dynamic}
