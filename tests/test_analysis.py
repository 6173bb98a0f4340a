"""Tests for the analysis layer: metrics, harness, reports."""

import pytest

from repro import ExperimentConfig, ExperimentHarness
from repro.analysis import (
    compare,
    format_figure1,
    format_figure6,
    format_figure7,
    format_figure8,
    format_metadata,
    format_overfetch,
    format_table2,
    geomean_speedup,
    summarise_group,
)
from repro.analysis.experiments import fitted_devices
from repro.analysis.metrics import WorkloadComparison
from repro.traces import DEFAULT_SCALE, SystemScale

FAST = ExperimentConfig(requests=6000, warmup=2000,
                        workloads=("mcf", "wrf", "leela", "roms"))


@pytest.fixture(scope="module")
def harness():
    return ExperimentHarness(FAST)


def fake_comparison(workload="mcf", design="X", ipc=1.5):
    return WorkloadComparison(
        workload=workload, design=design, norm_ipc=ipc,
        norm_hbm_traffic=1.0, norm_dram_traffic=0.8, norm_energy=0.9,
        hbm_hit_rate=0.9, overfetch_fraction=0.1,
        metadata_latency_fraction=0.0, page_faults=0)


class TestMetrics:
    def test_compare_rejects_workload_mismatch(self, harness):
        a = harness.baseline("mcf")
        b = harness.baseline("wrf")
        with pytest.raises(ValueError):
            compare(a, b)

    def test_group_summary_geomean(self):
        comparisons = [fake_comparison("mcf", ipc=1.0),
                       fake_comparison("xalancbmk", ipc=4.0)]
        summary = summarise_group(comparisons, "medium")
        assert summary.norm_ipc == pytest.approx(2.0)

    def test_group_summary_rejects_mixed_designs(self):
        comparisons = [fake_comparison("mcf", design="A"),
                       fake_comparison("cam4", design="B")]
        with pytest.raises(ValueError):
            summarise_group(comparisons, "medium")

    def test_group_summary_rejects_empty_group(self):
        with pytest.raises(ValueError):
            summarise_group([fake_comparison("mcf")], "high")

    def test_all_group_includes_everything(self):
        comparisons = [fake_comparison("mcf"), fake_comparison("roms")]
        summary = summarise_group(comparisons, "all")
        assert sorted(summary.workloads) == ["mcf", "roms"]

    def test_geomean_speedup(self):
        assert geomean_speedup([fake_comparison(ipc=1.0),
                                fake_comparison(ipc=4.0)]) \
            == pytest.approx(2.0)


class TestHarness:
    def test_traces_cached(self, harness):
        assert harness.trace("mcf") is harness.trace("mcf")

    def test_baseline_cached(self, harness):
        assert harness.baseline("mcf") is harness.baseline("mcf")

    def test_design_runs_cached(self, harness):
        a = harness.run_design("AlloyCache", "leela")
        b = harness.run_design("AlloyCache", "leela")
        assert a is b

    def test_trace_length_covers_warmup(self, harness):
        assert len(harness.trace("mcf")) == \
            FAST.requests + FAST.warmup

    def test_run_design_produces_comparison(self, harness):
        comparison = harness.run_design("Bumblebee", "mcf")
        assert comparison.norm_ipc > 0
        assert comparison.design == "Bumblebee"

    def test_figure1_buckets_sum_to_one(self, harness):
        results = harness.figure1_line_utilisation(workloads=("mcf",),
                                                   line_sizes=(64, 4096))
        for result in results["mcf"].values():
            assert sum(result.fractions) == pytest.approx(1.0)

    def test_table2_covers_configured_workloads(self, harness):
        rows = harness.table2_characteristics()
        assert {r["benchmark"] for r in rows} == set(FAST.workloads)

    def test_sec4b_metadata_shape(self, harness):
        report = harness.sec4b_metadata()
        assert report["bumblebee"].total_bytes < report["hybrid2_bytes"]


class TestFittedDevices:
    def test_exact_tiling_for_96kb_pages(self):
        hbm, dram = fitted_devices(DEFAULT_SCALE, page_bytes=96 * 1024)
        set_bytes = 96 * 1024 * 8
        assert hbm.geometry.capacity_bytes % set_bytes == 0
        sets = hbm.geometry.capacity_bytes // set_bytes
        assert dram.geometry.capacity_bytes % (96 * 1024 * sets) == 0

    def test_default_page_size_unchanged_capacity(self):
        hbm, dram = fitted_devices(DEFAULT_SCALE)
        assert hbm.geometry.capacity_bytes == DEFAULT_SCALE.hbm_bytes
        assert dram.geometry.capacity_bytes == DEFAULT_SCALE.dram_bytes

    def test_tiny_scale_still_valid(self):
        scale = SystemScale(1.0 / 512.0)
        hbm, dram = fitted_devices(scale)
        assert hbm.geometry.capacity_bytes >= 64 * 1024 * 8


class TestReports:
    def test_figure7_format(self):
        text = format_figure7({"Bumblebee": 2.0, "C-Only": 1.33})
        assert "Bumblebee" in text and "2.00" in text

    def test_figure8_format(self, harness):
        results = harness.figure8_comparison(
            designs=("AlloyCache",), workloads=("mcf",), groups=("all",))
        for metric in ("norm_ipc", "norm_hbm_traffic",
                       "norm_dram_traffic", "norm_energy"):
            assert "AlloyCache" in format_figure8(results, metric)

    def test_figure8_rejects_bad_metric(self, harness):
        results = harness.figure8_comparison(
            designs=("AlloyCache",), workloads=("mcf",), groups=("all",))
        with pytest.raises(KeyError):
            format_figure8(results, "bogus")

    def test_figure1_format(self, harness):
        results = harness.figure1_line_utilisation(workloads=("mcf",),
                                                   line_sizes=(64,))
        text = format_figure1(results)
        assert "[mcf]" in text and "N<5" in text

    def test_table2_format(self, harness):
        text = format_table2(harness.table2_characteristics())
        assert "mcf" in text

    def test_metadata_format(self, harness):
        text = format_metadata(harness.sec4b_metadata())
        assert "334KB" in text

    def test_overfetch_format(self):
        text = format_overfetch({"Bumblebee": 0.133})
        assert "13.3%" in text

    def test_figure6_format(self):
        cell = {"norm_ipc": 1.9, "metadata_bytes": 300 * 1024,
                "fits_sram": True}
        text = format_figure6({(2048, 65536): cell})
        assert "2-64" in text
