"""Tests for features beyond the paper: prefetch, full-stack, validation."""

import pytest

from repro.analysis.metrics import GroupSummary
from repro.analysis.validation import (
    ShapeCheck,
    check_figure7,
    check_figure8,
    check_metadata,
    check_overfetch,
    render_report,
)
from repro.core import BumblebeeConfig, BumblebeeController
from repro.mem import ddr4_3200_config, hbm2_config
from repro.sim import (
    MemoryRequest,
    RawAccess,
    SimulationDriver,
    raw_access_stream,
    run_full_stack,
)
from repro.traces import SyntheticSpec, SyntheticTraceGenerator

MIB = 1 << 20
HBM = hbm2_config(8 * MIB)
DRAM = ddr4_3200_config(80 * MIB)


class TestPrefetch:
    def make(self, blocks):
        from repro.core.config import AllocationPolicy
        return BumblebeeController(
            HBM, DRAM, BumblebeeConfig(prefetch_blocks=blocks,
                                       allocation=AllocationPolicy.DRAM))

    def test_disabled_by_default(self):
        assert BumblebeeConfig().prefetch_blocks == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BumblebeeConfig(prefetch_blocks=-1)

    def test_prefetches_next_blocks(self):
        controller = self.make(2)
        controller.access(MemoryRequest(addr=0), 0.0)
        assert controller.stats.get("prefetched_blocks") == 2
        # Blocks 1 and 2 are now valid: demand to them hits.
        result = controller.access(MemoryRequest(addr=2048), 100.0)
        assert result.hbm_hit
        controller.check_invariants()

    def test_prefetch_stops_at_page_boundary(self):
        controller = self.make(4)
        last_block_addr = (controller.config.blocks_per_page - 1) * 2048
        controller.access(MemoryRequest(addr=last_block_addr), 0.0)
        assert controller.stats.get("prefetched_blocks") == 0

    def test_prefetched_bytes_counted_as_fetched(self):
        controller = self.make(2)
        controller.access(MemoryRequest(addr=0), 0.0)
        assert controller.stats.get("fetched_bytes") == 3 * 2048

    def test_prefetch_improves_sequential_hit_rate(self):
        spec = SyntheticSpec("seq", 16 * MIB, spatial=0.95, temporal=0.1,
                             mpki=16.0)
        trace = SyntheticTraceGenerator(spec, seed=2).generate_packed(12000)
        plain = SimulationDriver().run(self.make(0), trace, workload="s")
        prefetched = SimulationDriver().run(self.make(2), trace,
                                            workload="s")
        assert prefetched.hbm_hit_rate >= plain.hbm_hit_rate


class TestFullStack:
    def test_hierarchy_filters_reuse(self):
        spec = SyntheticSpec("fs", 8 * MIB, 0.7, 0.8, mpki=16.0,
                             hot_fraction=0.2)
        controller = BumblebeeController(HBM, DRAM)
        result, hierarchy = run_full_stack(
            controller, raw_access_stream(spec, 20000))
        # The SRAM stack absorbs a meaningful share of raw accesses.
        assert result.requests < 20000
        assert hierarchy.llc.accesses > 0

    def test_writebacks_reach_memory(self):
        from repro.cache import CacheHierarchy, HierarchyConfig
        spec = SyntheticSpec("wb", 8 * MIB, 0.5, 0.5, mpki=16.0,
                             write_fraction=0.9)
        controller = BumblebeeController(HBM, DRAM)
        # A small hierarchy so dirty LLC evictions surface quickly.
        hierarchy = CacheHierarchy(HierarchyConfig(
            l1_bytes=16 * 1024, l2_bytes=64 * 1024,
            llc_bytes=256 * 1024))
        result, _ = run_full_stack(controller,
                                   raw_access_stream(spec, 30000),
                                   hierarchy=hierarchy)
        assert result.controller_stats.get("demand_writes", 0) > 0

    def test_raw_access_stream_length(self):
        spec = SyntheticSpec("r", 1 * MIB, 0.5, 0.5, 10.0)
        assert len(list(raw_access_stream(spec, 123))) == 123

    def test_raw_access_dataclass(self):
        access = RawAccess(addr=64, is_write=True, icount=5)
        assert access.addr == 64 and access.is_write


def summary(design, group, ipc, hbm=1.0, dram=1.0, energy=1.0):
    return GroupSummary(design=design, group=group, norm_ipc=ipc,
                        norm_hbm_traffic=hbm, norm_dram_traffic=dram,
                        norm_energy=energy)


def fig8_results(bee_ipc=2.0):
    designs = {
        "Bumblebee": bee_ipc, "Chameleon": 1.8, "Banshee": 1.5,
        "Hybrid2": 1.4, "AlloyCache": 1.2, "UnisonCache": 1.05,
    }
    out = {}
    for design, ipc in designs.items():
        out[design] = {
            "high": summary(design, "high", ipc * 1.2),
            "low": summary(design, "low", 1.02),
            "all": summary(design, "all", ipc,
                           hbm=2.0 if design != "Hybrid2" else 2.2,
                           dram=0.9, energy=1.0 if design == "Bumblebee"
                           else 1.5),
        }
    return out


class TestValidation:
    def test_figure8_checks_pass_on_paper_shape(self):
        checks = check_figure8(fig8_results())
        assert all(c.passed for c in checks)

    def test_figure8_detects_bumblebee_losing(self):
        checks = check_figure8(fig8_results(bee_ipc=1.0))
        assert not all(c.passed for c in checks)

    def test_figure7_checks(self):
        results = {"C-Only": 1.3, "M-Only": 1.6, "Meta-H": 1.2,
                   "Bumblebee": 2.0}
        assert all(c.passed for c in check_figure7(results))

    def test_figure7_detects_inversion(self):
        results = {"C-Only": 2.5, "M-Only": 1.6, "Meta-H": 1.2,
                   "Bumblebee": 2.0}
        checks = check_figure7(results)
        assert any(not c.passed for c in checks)

    def test_overfetch_check(self):
        assert check_overfetch({"Bumblebee": 0.13,
                                "Hybrid2": 0.14})[0].passed
        assert not check_overfetch({"Bumblebee": 0.5,
                                    "Hybrid2": 0.14})[0].passed

    def test_metadata_check(self):
        from repro.core import BumblebeeConfig, derive_geometry
        from repro.core.metadata import metadata_sizes
        config = BumblebeeConfig()
        geometry = derive_geometry(config, 1 << 30, 10 << 30)
        report = {
            "bumblebee": metadata_sizes(config, geometry),
            "bumblebee_fits_sram": True,
            "hybrid2_bytes": 24 << 20,
            "alloy_bytes": 110 << 20,
        }
        assert all(c.passed for c in check_metadata(report))

    def test_render_report_counts(self):
        checks = [ShapeCheck("a", "b", True, "c"),
                  ShapeCheck("d", "e", False, "f")]
        text = render_report(checks)
        assert "1/2" in text
        assert "[MISS]" in text

    def test_figure8_bumblebee_free_campaign_skips(self):
        # Regression: a campaign over a subset of designs crashed the
        # shape checks with KeyError; absent designs now skip-and-report.
        results = fig8_results()
        del results["Bumblebee"]
        checks = check_figure8(results)
        skipped = [c for c in checks if c.skipped]
        assert skipped
        assert all("Bumblebee" in c.measured for c in skipped)
        # Claims that never reference Bumblebee still evaluate.
        evaluated = [c for c in checks if not c.skipped]
        assert evaluated
        assert all(not c.passed for c in skipped)  # skips never "pass"

    def test_figure8_single_design_never_crashes(self):
        results = {"Banshee": fig8_results()["Banshee"]}
        checks = check_figure8(results)
        assert checks
        assert all(c.skipped for c in checks)

    def test_figure7_subset_skips(self):
        checks = check_figure7({"Bumblebee": 2.0, "M-Only": 1.6})
        assert any(c.skipped for c in checks)
        assert any(not c.skipped for c in checks)

    def test_overfetch_subset_skips(self):
        checks = check_overfetch({"Bumblebee": 0.13})
        assert len(checks) == 1
        assert checks[0].skipped
        assert "Hybrid2" in checks[0].measured

    def test_render_report_counts_skips_separately(self):
        checks = [ShapeCheck("a", "b", True, "c"),
                  ShapeCheck.skip("d", "e", ["Bumblebee"])]
        text = render_report(checks)
        assert "1/1" in text
        assert "[SKIP]" in text
        assert "1 skipped" in text
