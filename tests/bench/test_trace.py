"""The benchmark's outside-in tracer: self-time arithmetic, alias
patching, clean unwrapping, and that wrapping only observes."""

import sys
import types

import pytest

from bench.layers import Observer, SimCounts, boundaries
from bench.trace import ROOT, Boundary, Tracer
from repro.config import ooo_machine, sst_machine
from repro.sim.machine import Machine
from repro.workloads import commercial_suite, compute_suite


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


FAKE_LAYERS = """
def inner():
    CLOCK.advance(1.0)

def middle():
    CLOCK.advance(2.0)
    inner()

def outer():
    CLOCK.advance(4.0)
    middle()
    middle()
    CLOCK.advance(8.0)

class Holder:
    def run(self):
        CLOCK.advance(16.0)
        return "ran"
"""

FAKE_ALIASES = """
from fakepkg.layers import Holder, inner as aliased_inner
REGISTRY = {"inner": aliased_inner}
"""


@pytest.fixture
def fake_package():
    clock = FakeClock()
    modules = {}
    for name, source in (("fakepkg", ""), ("fakepkg.layers", FAKE_LAYERS),
                         ("fakepkg.aliases", FAKE_ALIASES)):
        module = types.ModuleType(name)
        module.CLOCK = clock
        sys.modules[name] = module
        exec(source, vars(module))  # noqa: S102 - fixed test source
        modules[name] = module
    yield clock, modules["fakepkg.layers"], modules["fakepkg.aliases"]
    for name in modules:
        del sys.modules[name]


FAKE_BOUNDARIES = (
    Boundary("outer", "fakepkg.layers", "outer", spans=True),
    Boundary("middle", "fakepkg.layers", "middle"),
    Boundary("inner", "fakepkg.layers", "inner"),
    Boundary("holder", "fakepkg.layers", "Holder.run", spans=True),
)


def test_self_time_of_nested_calls(fake_package):
    clock, layers, _ = fake_package
    returned = []
    tracer = Tracer(FAKE_BOUNDARIES, packages=("fakepkg",), clock=clock,
                    on_return=lambda layer, result: returned.append(
                        (layer, result)))
    with tracer:
        clock.advance(0.5)
        layers.outer()
        assert layers.Holder().run() == "ran"
        clock.advance(0.25)
    report = tracer.report()

    assert report["wall_s"] == 34.75
    assert report["other_self_s"] == 0.75
    assert report["layers"] == {
        "outer": {"calls": 1, "self_s": 12.0},
        "middle": {"calls": 2, "self_s": 4.0},
        "inner": {"calls": 2, "self_s": 2.0},
        "holder": {"calls": 1, "self_s": 16.0},
    }
    by_pair = {(row["layer"], row["parent"]): row
               for row in report["aggregates"]}
    assert by_pair[("outer", ROOT)]["total_s"] == 18.0
    assert by_pair[("middle", "outer")]["total_s"] == 6.0
    assert by_pair[("inner", "middle")]["calls"] == 2
    # Full spans only for span boundaries, parented by span id.
    assert [(s["layer"], s["start_s"], s["end_s"], s["self_s"])
            for s in report["spans"]] == [("outer", 0.5, 18.5, 12.0),
                                          ("holder", 18.5, 34.5, 16.0)]
    assert {s["parent"] for s in report["spans"]} == {0}
    assert returned == [("outer", None), ("holder", "ran")]
    total = sum(entry["self_s"] for entry in report["layers"].values())
    assert total + report["other_self_s"] == report["wall_s"]


def test_aliases_are_patched_and_restored(fake_package):
    clock, layers, aliases = fake_package
    originals = (layers.inner, layers.Holder.__dict__["run"])
    tracer = Tracer(FAKE_BOUNDARIES, packages=("fakepkg",), clock=clock)
    with tracer:
        assert aliases.aliased_inner is layers.inner
        assert aliases.REGISTRY["inner"] is layers.inner
        assert layers.inner is not originals[0]
        aliases.aliased_inner()
        aliases.REGISTRY["inner"]()
    assert tracer.report()["layers"]["inner"]["calls"] == 2
    assert layers.inner is originals[0]
    assert aliases.aliased_inner is originals[0]
    assert aliases.REGISTRY["inner"] is originals[0]
    assert layers.Holder.__dict__["run"] is originals[1]


def test_an_exception_still_closes_its_span(fake_package):
    clock, layers, _ = fake_package

    def failing():
        clock.advance(3.0)
        raise ValueError("boom")

    layers.failing = failing
    tracer = Tracer([Boundary("failing", "fakepkg.layers", "failing")],
                    packages=("fakepkg",), clock=clock)
    with tracer:
        with pytest.raises(ValueError):
            layers.failing()
    report = tracer.report()
    assert report["layers"]["failing"] == {"calls": 1, "self_s": 3.0}
    assert report["other_self_s"] == 0.0


def test_traced_and_untraced_runs_give_equal_results():
    """Two tiny-suite programs on an SST and an OoO machine: the wrappers
    only observe, so every simulated result is identical."""
    points = [(sst_machine(), commercial_suite("tiny")[0]),
              (ooo_machine(), compute_suite("tiny")[1])]
    untraced = [Machine(config).run(program) for config, program in points]
    observer = Observer()
    tracer = Tracer(boundaries(), on_return=observer)
    with tracer:
        traced = [Machine(config).run(program) for config, program in points]
    for plain, seen in zip(untraced, traced):
        assert (seen.cycles, seen.instructions) == \
            (plain.cycles, plain.instructions)
        assert seen.state.regs == plain.state.regs
        assert seen.state.memory == plain.state.memory
        for stats in ("hierarchy", "branch", "perf"):
            assert seen.extra[stats] == plain.extra[stats]
    layers = tracer.report()["layers"]
    assert layers["core.sst"]["calls"] == 1
    assert layers["baselines.ooo"]["calls"] == 1
    assert layers["memory"]["calls"] > 0
    assert layers["branch"]["calls"] > 0
    expected = SimCounts()
    for result in untraced:
        expected.add_model_stats(result)
    assert observer.counts.metrics() == expected.metrics()
    # Unwrapped afterwards: the class attribute is the original again.
    from repro.memory.hierarchy import MemoryHierarchy
    assert not hasattr(MemoryHierarchy.data_access, "__wrapped__")
