"""Unit tests for repro.experiments.perf: the documented aggregate
semantics (wall-weighted sum-of-instructions over sum-of-wall, never a
mean of rates), the tracked speedup_vs_baseline metric, and the
run_perf_smoke regression gate (measure() monkeypatched — no
simulation here)."""

import json

import pytest

from repro.experiments import perf


def entry(machine, instructions, wall, stepped=0, skipped=0):
    row = {
        "machine": machine,
        "program": "p",
        "cycles": instructions,
        "instructions": instructions,
        "ipc": 1.0,
        "wall_seconds": wall,
        "insts_per_host_second": (round(instructions / wall)
                                  if wall else None),
        "sim_cycles_per_second": (round(instructions / wall)
                                  if wall else None),
    }
    if stepped or skipped:
        row["perf"] = {"cycles_stepped": stepped,
                       "cycles_skipped": skipped}
    return row


def payload_with(entries, tag="probe"):
    return {"schema": perf.REPORT_SCHEMA, "tag": tag,
            "entries": entries, "aggregate": perf.aggregate(entries)}


class TestAggregate:
    def test_per_machine_rate_is_wall_weighted(self):
        agg = perf.aggregate([entry("sst", 100, 1.0),
                              entry("sst", 300, 3.0)])
        sst = agg["machines"]["sst"]
        # 400 insts / 4.0 s — not mean(100/1, 300/3) either way here,
        # but the distinction matters below.
        assert sst["instructions"] == 400
        assert sst["wall_seconds"] == 4.0
        assert sst["insts_per_host_second"] == 100

    def test_total_is_not_a_mean_of_machine_rates(self):
        agg = perf.aggregate([entry("slow", 100, 1.0),
                              entry("fast", 1000, 1.0),
                              entry("fast", 1000, 1.0)])
        # Rates: slow=100/s over 1s, fast=1000/s over 2s.
        # Wall-weighted total: 2100 insts / 3.0 s = 700/s.
        # A mean of machine rates would say 550/s — wrong semantics.
        assert agg["total"]["insts_per_host_second"] == 700
        assert agg["total"]["instructions"] == 2100
        assert agg["total"]["wall_seconds"] == 3.0

    def test_skip_fraction_rollup(self):
        agg = perf.aggregate([entry("sst", 10, 1.0, stepped=30,
                                    skipped=70),
                              entry("sst", 10, 1.0, stepped=20,
                                    skipped=80)])
        assert agg["machines"]["sst"]["skip_fraction"] == 0.75

    def test_zero_wall_yields_none_not_crash(self):
        agg = perf.aggregate([entry("sst", 0, 0.0)])
        assert agg["machines"]["sst"]["insts_per_host_second"] is None
        assert agg["total"]["insts_per_host_second"] is None


class TestSpeedupVsBaseline:
    def test_ratios(self):
        baseline = payload_with([entry("sst", 100, 1.0),
                                 entry("inorder", 500, 1.0)],
                                tag="smoke")
        current = payload_with([entry("sst", 220, 1.0),
                                entry("inorder", 500, 1.0)])
        speedup = perf.speedup_vs_baseline(current, baseline)
        assert speedup["baseline_tag"] == "smoke"
        assert speedup["machines"]["sst"] == pytest.approx(2.2)
        assert speedup["machines"]["inorder"] == pytest.approx(1.0)
        # Aggregate is the wall-weighted total ratio: 720/600.
        assert speedup["aggregate"] == pytest.approx(1.2)

    def test_machines_missing_from_baseline_are_skipped(self):
        baseline = payload_with([entry("sst", 100, 1.0)])
        current = payload_with([entry("sst", 100, 1.0),
                                entry("brand-new", 100, 1.0)])
        speedup = perf.speedup_vs_baseline(current, baseline)
        assert set(speedup["machines"]) == {"sst"}

    @pytest.mark.parametrize("baseline", [
        None, {}, {"aggregate": None}, {"aggregate": {"total": {}}},
        "not a dict",
    ])
    def test_unusable_baseline_returns_none(self, baseline):
        current = payload_with([entry("sst", 100, 1.0)])
        assert perf.speedup_vs_baseline(current, baseline) is None


class TestRunPerfSmoke:
    @pytest.fixture
    def fake_measure(self, monkeypatch):
        # run_perf_smoke exports REPRO_BENCH_SMOKE=1; route it through
        # monkeypatch so teardown restores the outer environment.
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")

        def install(instructions):
            monkeypatch.setattr(
                perf, "measure",
                lambda tag="smoke": payload_with(
                    [entry("sst", instructions, 1.0)], tag=tag))
        return install

    def test_first_run_records_baseline(self, tmp_path, fake_measure):
        baseline = tmp_path / "BENCH_smoke.json"
        fake_measure(1000)
        assert perf.run_perf_smoke(baseline_path=baseline) == 0
        written = json.loads(baseline.read_text())
        assert written["aggregate"]["total"]["insts_per_host_second"] \
            == 1000
        assert "speedup_vs_baseline" not in written

    def test_within_tolerance_passes_and_embeds_speedup(
            self, tmp_path, fake_measure):
        baseline = tmp_path / "BENCH_smoke.json"
        fake_measure(1000)
        perf.run_perf_smoke(baseline_path=baseline)
        fake_measure(800)  # 0.8x, tolerance 0.30
        assert perf.run_perf_smoke(tolerance=0.30,
                                   baseline_path=baseline) == 0
        written = json.loads(baseline.read_text())
        assert written["speedup_vs_baseline"]["aggregate"] \
            == pytest.approx(0.8)

    def test_regression_beyond_tolerance_fails(self, tmp_path,
                                               fake_measure):
        baseline = tmp_path / "BENCH_smoke.json"
        fake_measure(1000)
        perf.run_perf_smoke(baseline_path=baseline)
        fake_measure(500)
        assert perf.run_perf_smoke(tolerance=0.30,
                                   baseline_path=baseline) == 1


def test_committed_baseline_is_valid_and_carries_the_speedup_metric():
    """The refreshed benchmarks/BENCH_smoke.json must parse, use the
    current schema, and record the tracked speedup number."""
    payload = perf.load_baseline()
    assert payload is not None, "benchmarks/BENCH_smoke.json missing"
    assert payload["schema"] == perf.REPORT_SCHEMA
    assert payload["aggregate"]["total"]["insts_per_host_second"] > 0
    speedup = payload.get("speedup_vs_baseline")
    assert speedup and speedup["aggregate"] is not None


def test_cli_perf_report_gates_against_baseline(tmp_path, monkeypatch):
    from repro import cli

    monkeypatch.setattr(
        perf, "measure",
        lambda tag="report": payload_with([entry("sst", 100, 1.0)],
                                          tag=tag))
    baseline = tmp_path / "BENCH_smoke.json"
    baseline.write_text(json.dumps(
        payload_with([entry("sst", 1000, 1.0)], tag="smoke")))
    monkeypatch.setenv("REPRO_PERF_BASELINE", str(baseline))
    out = tmp_path / "BENCH_probe.json"
    code = cli.main(["perf", "report", "--tag", "probe",
                     "--out", str(out), "--compare-baseline",
                     "--tolerance", "0.5"])
    assert code == 1  # 0.1x is far below 1 - 0.5
    written = json.loads(out.read_text())
    assert written["speedup_vs_baseline"]["aggregate"] \
        == pytest.approx(0.1)
    code = cli.main(["perf", "report", "--tag", "probe",
                     "--out", str(out), "--compare-baseline",
                     "--tolerance", "0.95"])
    assert code == 0


# ---------------------------------------------------------------------------
# Snapshot self-consistency: rates reproduce from the stored walls.
# ---------------------------------------------------------------------------


class TestSnapshotRoundTrip:
    def test_entry_rates_derive_from_stored_wall(self):
        class FakeResult:
            core_name = "fake"
            program_name = "p"
            cycles = 12345
            instructions = 23456
            ipc = 1.9
            wall_seconds = 0.123456789
            extra = {}

        row = perf.perf_entry(FakeResult())
        assert row["wall_seconds"] == 0.1235
        assert row["insts_per_host_second"] == \
            round(row["instructions"] / row["wall_seconds"])
        assert row["sim_cycles_per_second"] == \
            round(row["cycles"] / row["wall_seconds"])

    def test_aggregate_rates_derive_from_stored_walls(self):
        entries = [entry("m1", 1000, 0.33335), entry("m1", 500, 0.1),
                   entry("m2", 2000, 0.70004)]
        agg = perf.aggregate(entries)
        for machine, rollup in agg["machines"].items():
            assert rollup["insts_per_host_second"] == round(
                rollup["instructions"] / rollup["wall_seconds"])
        total = agg["total"]
        assert total["wall_seconds"] == round(
            sum(r["wall_seconds"] for r in agg["machines"].values()),
            4)
        assert total["insts_per_host_second"] == round(
            total["instructions"] / total["wall_seconds"])

    def test_committed_snapshot_is_self_consistent(self):
        payload = perf.load_baseline()
        assert payload is not None
        for row in payload["entries"]:
            if row["wall_seconds"]:
                assert row["insts_per_host_second"] == round(
                    row["instructions"] / row["wall_seconds"]), row
        agg = payload["aggregate"]
        for rollup in agg["machines"].values():
            if rollup["wall_seconds"]:
                assert rollup["insts_per_host_second"] == round(
                    rollup["instructions"] / rollup["wall_seconds"])
        total = agg["total"]
        if total["wall_seconds"]:
            assert total["insts_per_host_second"] == round(
                total["instructions"] / total["wall_seconds"])
