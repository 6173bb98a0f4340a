"""Tests for the multi-channel device and the IDD energy model."""

import pytest

from repro.mem import (
    EnergyCounters,
    EnergyModel,
    MemoryDevice,
    ddr4_3200_config,
    hbm2_config,
)


@pytest.fixture
def hbm():
    return MemoryDevice(hbm2_config(64 << 20))


@pytest.fixture
def dram():
    return MemoryDevice(ddr4_3200_config(640 << 20))


class TestDevice:
    def test_access_returns_positive_latency(self, hbm):
        done = hbm.access(0, 64, False, 10.0)
        assert done - 10.0 > 0

    def test_accesses_spread_across_channels(self, hbm):
        g = hbm.config.geometry
        for i in range(g.channels):
            hbm.access(i * g.interleave_bytes, 64, False, 0.0)
        assert hbm.state.read_bytes[hbm.chan_slice] == [64] * g.channels

    def test_traffic_aggregates(self, hbm):
        hbm.access(0, 64, False, 0.0)
        hbm.access(512, 64, True, 10.0)
        traffic = hbm.traffic()
        assert traffic.read_bytes == 64
        assert traffic.write_bytes == 64
        assert traffic.total_bytes == 128

    def test_bulk_transfer_stripes_channels(self, hbm):
        hbm.bulk_transfer(0, 64 * 1024, False, 0.0)
        touched = sum(1 for b in hbm.state.read_bytes[hbm.chan_slice]
                      if b > 0)
        assert touched == hbm.config.geometry.channels
        assert hbm.traffic().read_bytes == 64 * 1024

    def test_bulk_transfer_zero_bytes_noop(self, hbm):
        done = hbm.bulk_transfer(0, 0, False, 5.0)
        assert done == 5.0
        assert hbm.traffic().total_bytes == 0

    def test_row_buffer_stats_accumulate(self, hbm):
        hbm.access(0, 64, False, 0.0)
        hbm.access(0, 64, False, 100.0)
        stats = hbm.row_buffer_stats()
        assert stats["closed"] == 1
        assert stats["hits"] == 1

    def test_reset_clears_everything(self, hbm):
        hbm.access(0, 64, False, 0.0)
        hbm.reset()
        assert hbm.traffic().total_bytes == 0

    def test_hbm_faster_than_ddr4_unloaded(self, hbm, dram):
        assert hbm.access(0, 64, False, 0.0) < dram.access(0, 64, False, 0.0)


class TestEnergyModel:
    def test_event_energies_positive(self):
        model = EnergyModel(hbm2_config())
        assert model.activate_pj > 0
        assert model.read_burst_pj > 0
        assert model.write_burst_pj > 0

    def test_write_costs_more_than_read_hbm(self):
        # IDD4W (500mA) > IDD4R (390mA) for the Table I HBM2 part.
        model = EnergyModel(hbm2_config())
        assert model.write_burst_pj > model.read_burst_pj

    def test_breakdown_scales_with_counters(self):
        model = EnergyModel(hbm2_config())
        one = model.breakdown(EnergyCounters(activations=1), 1000.0)
        two = model.breakdown(EnergyCounters(activations=2), 1000.0)
        assert two.activate_pj == pytest.approx(2 * one.activate_pj)

    def test_dynamic_excludes_background(self):
        model = EnergyModel(hbm2_config())
        breakdown = model.breakdown(EnergyCounters(), 1_000_000.0)
        assert breakdown.dynamic_pj == 0.0
        assert breakdown.background_pj > 0

    def test_refresh_count_grows_with_time(self):
        model = EnergyModel(ddr4_3200_config())
        assert model.refresh_count(1e9) > model.refresh_count(1e6)

    def test_device_energy_integration(self):
        device = MemoryDevice(hbm2_config(64 << 20))
        device.access(0, 64, False, 0.0)
        breakdown = device.energy(elapsed_ns=10_000.0)
        assert breakdown.dynamic_pj > 0
        assert breakdown.total_pj > breakdown.dynamic_pj
