"""Tests for the device-report analysis and the extended device presets."""

import pytest

from repro.analysis import (
    controller_device_reports,
    device_report,
    format_device_reports,
)
from repro.baselines import make_controller
from repro.mem import (
    MemoryDevice,
    ddr4_3200_config,
    ddr5_4800_config,
    hbm2_config,
    hbm3_config,
)
from repro.sim import SimulationDriver
from repro.traces import workload_trace

MIB = 1 << 20


class TestPresets:
    def test_hbm3_doubles_down_on_bandwidth(self):
        assert hbm3_config().peak_bandwidth_gbs > \
            2 * hbm2_config().peak_bandwidth_gbs

    def test_ddr5_faster_than_ddr4(self):
        assert ddr5_4800_config().peak_bandwidth_gbs > \
            ddr4_3200_config().peak_bandwidth_gbs

    def test_stacked_flags(self):
        assert hbm3_config().is_stacked
        assert not ddr5_4800_config().is_stacked

    def test_ddr5_rank_ganging(self):
        assert ddr5_4800_config().geometry.devices_per_rank == 4

    @pytest.mark.parametrize("factory", [hbm3_config, ddr5_4800_config])
    def test_presets_build_working_devices(self, factory):
        device = MemoryDevice(factory(32 * MIB))
        assert device.access(0, 64, False, 0.0) > 0.0  # latency from t=0
        device.bulk_transfer(0, 64 * 1024, False, 0.0)
        assert device.traffic().total_bytes > 64 * 1024

    def test_bumblebee_runs_on_hbm3_ddr5(self):
        controller = make_controller("Bumblebee", hbm3_config(8 * MIB),
                                     ddr5_4800_config(80 * MIB))
        result = SimulationDriver().run(
            controller, workload_trace("mcf", 3000), workload="mcf")
        assert result.requests == 3000
        controller.check_invariants()


class TestDeviceReports:
    def run(self, design="Bumblebee"):
        controller = make_controller(design, hbm2_config(8 * MIB),
                                     ddr4_3200_config(80 * MIB))
        result = SimulationDriver().run(
            controller, workload_trace("lbm", 5000), workload="lbm")
        return controller, result

    def test_reports_cover_both_devices(self):
        controller, result = self.run()
        reports = controller_device_reports(controller, result)
        assert set(reports) == {"hbm", "dram"}
        assert reports["hbm"].name == "HBM2"

    def test_no_hbm_design_reports_dram_only(self):
        controller = make_controller("No-HBM", hbm2_config(8 * MIB),
                                     ddr4_3200_config(80 * MIB))
        result = SimulationDriver().run(
            controller, workload_trace("lbm", 2000), workload="lbm")
        reports = controller_device_reports(controller, result)
        assert set(reports) == {"dram"}

    def test_rates_in_unit_interval(self):
        controller, result = self.run()
        for report in controller_device_reports(controller,
                                                result).values():
            assert 0.0 <= report.row_hit_rate <= 1.0
            assert 0.0 <= report.utilisation <= 1.0

    def test_traffic_matches_device_counters(self):
        controller, result = self.run()
        reports = controller_device_reports(controller, result)
        assert reports["hbm"].read_bytes + reports["hbm"].write_bytes == \
            controller.hbm.traffic().total_bytes

    def test_rejects_zero_elapsed(self):
        controller, _ = self.run()
        with pytest.raises(ValueError):
            device_report(controller.dram, 0.0)

    def test_formatting(self):
        controller, result = self.run()
        text = format_device_reports(
            {"Bumblebee": controller_device_reports(controller, result)})
        assert "HBM2" in text and "DDR4-3200" in text
