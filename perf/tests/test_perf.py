"""Self-tests of the benchmark: ``python -m pytest perf/tests``."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perf import ROOT, load_benchmark
from perf import compare, reference, run, tracing, workloads

BENCHMARK = load_benchmark()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _names(section: str) -> set:
    return {metric["name"] for metric in BENCHMARK[section]}


def tiny(spec, cells: int = 2):
    """A few-cell, short-window copy of a workload."""
    return dataclasses.replace(
        spec, designs=spec.designs[:cells], workloads=spec.workloads[:cells],
        requests=400, warmup=200)


@pytest.fixture(scope="module")
def tiny_results():
    """Each workload measured once at a few cells and a short window."""
    return {name: workloads.measure(tiny(spec), seed=7,
                                    seconds=0, trace=None, min_rounds=2)
            for name, spec in workloads.WORKLOADS.items()}


class TestWorkloads:
    def test_workload_names_match_benchmark(self):
        assert list(workloads.WORKLOADS) == [
            workload["name"] for workload in BENCHMARK["workloads"]]

    @pytest.mark.parametrize("name", list(workloads.WORKLOADS))
    def test_end_to_end_at_tiny_size(self, tiny_results, name):
        result = tiny_results[name]
        assert result.correct, (result.failed, result.checks)
        assert result.attempted == 4
        assert set(result.end_to_end) == _names("end_to_end")
        assert set(result.per_layer) == _names("per_layer")
        assert all(value > 0 for value in result.end_to_end.values())
        assert len(result.results_digest) == 64
        assert not os.path.exists(result.state_dir)

    def test_reference_kernel_leaves_the_collector_as_it_was(self):
        import gc
        assert gc.isenabled()
        assert workloads.reference_seconds() > 0
        assert gc.isenabled()
        gc.disable()
        try:
            workloads.reference_seconds()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_layers_split_as_designed(self, tiny_results):
        warm = tiny_results["warm-hits"].per_layer
        assert warm["sim.requests"] == 0
        assert warm["resultcache.hit_ratio"] == 1.0
        for name, result in tiny_results.items():
            fabric = sum(result.per_layer[f"{span}.calls"]
                         for span in tracing.SPANS
                         if span.startswith("fabric."))
            assert (fabric > 0) == (name == "fleet-cold")
            shares = sum(result.per_layer[f"{span}.share"]
                         for span in tracing.SPANS)
            assert shares == pytest.approx(1.0)


class TestNames:
    def test_benchmark_names_are_valid_and_unique(self):
        names = ([workload["name"] for workload in BENCHMARK["workloads"]]
                 + [metric["name"] for section in ("end_to_end",
                                                   "per_layer")
                    for metric in BENCHMARK[section]])
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(name) for name in names)

    @pytest.mark.parametrize("trace", [None, 0, 1])
    def test_printed_names_are_in_benchmark(self, tiny_results, capsys,
                                            trace):
        result = tiny_results["fig8-cold"]
        shown = run.select_metrics(result, trace, BENCHMARK)
        run._report(workloads.WORKLOADS["fig8-cold"], result, 0, shown)
        printed = re.findall(r"^  metric (\S+)", capsys.readouterr().out,
                             re.MULTILINE)
        expected = set()
        if trace != 1:
            expected |= _names("end_to_end")
        if trace != 0:
            expected |= _names("per_layer")
        assert set(printed) == set(shown) == expected
        assert all(NAME.fullmatch(name) for name in printed)


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTracer:
    def test_self_time_of_nested_spans(self):
        clock = _Clock()
        tracer = tracing.Tracer(clock=clock)
        with tracer.span("round"):                  # 0 .. 10
            clock.now = 1.0
            with tracer.span("a"):                  # 1 .. 6
                clock.now = 2.0
                with tracer.span("b"):              # 2 .. 3
                    clock.now = 3.0
                tracer.add("p", 2.0)                # aggregated child
                tracer.add("p", 0.5)
                clock.now = 6.0
            clock.now = 7.0
            with tracer.span("c"):                  # 7 .. 9
                clock.now = 9.0
            clock.now = 10.0
        assert dict(tracer.self_s) == {"round": 3.0, "a": 1.5, "b": 1.0,
                                       "p": 2.5, "c": 2.0}
        assert sum(tracer.self_s.values()) == tracer.inclusive_s["round"]
        assert tracer.calls["p"] == 2
        assert [event["name"] for event in tracer.events] == [
            "b", "a", "c", "round"]
        assert tracer.events[1]["args"] == {"p_s": 2.5, "p_calls": 2}

    def test_aggregated_child_can_be_renamed(self):
        clock = _Clock()
        tracer = tracing.Tracer(clock=clock)
        with tracer.span("round"):
            with tracer.span("sim.run") as frame:
                tracer.add("policy.access", 1.0)
                frame.rename["policy.access"] = "policy.bridge"
                clock.now = 3.0
        assert tracer.self_s["policy.bridge"] == 1.0
        assert tracer.self_s["sim.run"] == 2.0
        assert "policy.access" not in tracer.self_s

    def test_instrument_restores_every_function(self):
        from repro.analysis.experiments import ExperimentHarness
        from repro.designs import registry
        from repro.sim.driver import SimulationDriver
        before = (ExperimentHarness.__dict__["run_design"],
                  SimulationDriver.__dict__["run"])
        with tracing.instrument(tracing.Tracer()):
            assert SimulationDriver.__dict__["run"] is not before[1]
            assert "build" in vars(registry)
        assert (ExperimentHarness.__dict__["run_design"],
                SimulationDriver.__dict__["run"]) == before
        assert "build" not in vars(registry)


class TestReference:
    def test_flags_one_injected_field(self):
        from repro.analysis.experiments import (ExperimentConfig,
                                                ExperimentHarness)
        from repro.designs import registry
        harness = ExperimentHarness(ExperimentConfig(
            requests=400, warmup=200, workloads=("mcf",)))
        controller = registry.build("Bumblebee", harness.hbm_config,
                                    harness.dram_config)
        record = harness.driver.run(controller, harness.trace("mcf"),
                                    workload="mcf", warmup=200).to_record()
        tampered = json.loads(json.dumps(record))
        tampered["latency_histogram"]["counts"][3] += 1
        count = record["latency_histogram"]["counts"][3]
        assert reference.diff_records(record, record) == []
        assert reference.diff_records(record, tampered) == [
            ("latency_histogram.counts[3]", count, count + 1)]

    def test_flags_a_tampered_campaign_record(self, tmp_path):
        spec = tiny(workloads.WORKLOADS["fig8-cold"], cells=1)
        bench = workloads.ColdBench(spec, 7, tmp_path)
        data = bench._serial(bench._plan("ref-"))
        records = workloads._records(data)
        args = (spec.designs, spec.workloads, spec.requests, spec.warmup, 7)
        assert reference.reference_check(*args, records=records) == (
            set(), [])
        cell = spec.cells[0]
        records[cell]["norm_ipc"] += 1e-9
        failed, lines = reference.reference_check(*args, records=records)
        assert failed == {cell}
        assert len(lines) == 1 and "norm_ipc" in lines[0]


class TestCompare:
    def test_unchanged_within_bound(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.0]
        change = [value * 1.03 for value in base]
        assert compare.verdict(base, change, 0.10, "lower") == "unchanged"

    def test_worse_beyond_bound(self):
        base = [1.00, 1.01, 0.99, 1.00]
        change = [1.20, 1.21, 1.19, 1.20]
        assert compare.verdict(base, change, 0.10, "lower") == "worse"
        assert compare.verdict(change, base, 0.10, "higher") == "worse"

    def test_better_needs_ten_pairs_and_nine_tenths(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.0]
        change = [value * 0.9 for value in base]
        assert compare.verdict(base, change, 0.10, "lower") == "better"
        assert compare.win_fraction(base, change, "lower") == 1.0
        assert compare.verdict(base[:9], change[:9], 0.10,
                               "lower") == "unchanged"
        mixed = change[:8] + [base[8] * 1.01, base[9] * 1.01]
        assert compare.win_fraction(base, mixed, "lower") == 0.8
        assert compare.verdict(base, mixed, 0.10, "lower") == "unchanged"

    def test_unresolved_when_spread_exceeds_bound(self):
        base = [1.0, 1.5, 0.7, 1.2, 0.9]
        change = [1.1, 1.4, 0.8, 1.3, 1.0]
        assert compare.verdict(base, change, 0.10, "lower") == "unresolved"
        assert compare.verdict(base, [0.5] * 5, 0.10, "lower") == "better"

    def test_table_and_exit_status(self, tmp_path, capsys):
        def write(directory, seed, wall, digest):
            directory.mkdir(exist_ok=True)
            record = {"workload": "fig8-cold", "config": {"seed": seed},
                      "metrics": {"wall_norm": wall, "setup_s": 1.0,
                                  "peak_rss_mib": 80.0},
                      "results_digest": digest, "attempted": 18,
                      "failed": 0}
            (directory / f"BENCH_perf_fig8-cold.{seed}.json").write_text(
                json.dumps(record))
        for seed in range(3):
            write(tmp_path / "base", seed, 2.0, f"d{seed}")
            write(tmp_path / "same", seed, 2.01, f"d{seed}")
            write(tmp_path / "slow", seed, 2.5, f"d{seed}")
        assert compare.compare(tmp_path / "base", tmp_path / "same",
                               BENCHMARK) == 0
        out = capsys.readouterr().out
        assert "unchanged" in out and "match on 3 seed(s)" in out
        assert compare.compare(tmp_path / "base", tmp_path / "slow",
                               BENCHMARK) == 1
        assert "worse" in capsys.readouterr().out


def test_committed_baseline_trends_one_point_per_workload():
    from repro.observatory import RunStore
    store = RunStore(":memory:")
    added, seen = store.ingest_path(ROOT / "perf" / "baseline")
    assert added == seen == len(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        rows = store.trend("wall_s", workload=name, source="bench")
        assert len(rows) == 1 and rows[0]["runs"] == 1
    store.close()


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "perf.run", "--workload", "fig8-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
