"""Property-based tests for the memory substrate's physical invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    EnergyCounters,
    EnergyModel,
    MemoryDevice,
    ddr4_3200_config,
    ddr5_4800_config,
    hbm2_config,
    hbm3_config,
)

MIB = 1 << 20
CONFIGS = [hbm2_config, ddr4_3200_config, hbm3_config, ddr5_4800_config]


class TestTimeMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, (8 * MIB) - 64),
                              st.booleans(),
                              st.floats(0.0, 100.0)),
                    min_size=2, max_size=60))
    def test_completion_never_precedes_issue(self, accesses):
        """Every access completes after it was issued, at every device."""
        device = MemoryDevice(hbm2_config(8 * MIB))
        now = 0.0
        for addr, is_write, gap in accesses:
            now += gap
            done = device.access(addr, 64, is_write, now)
            assert done >= now
            assert done - now > 0

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, (8 * MIB) - 64), min_size=2,
                    max_size=40))
    def test_same_channel_bus_serialises(self, addrs):
        """Back-to-back accesses at the same instant never interleave on
        one channel's bus: completion times strictly increase."""
        device = MemoryDevice(hbm2_config(8 * MIB))
        done_by_channel: dict[int, float] = {}
        for addr in addrs:
            decoded = device.mapper.decode(addr)
            done = device.access(addr, 64, False, 0.0)
            previous = done_by_channel.get(decoded.channel)
            if previous is not None:
                assert done > previous
            done_by_channel[decoded.channel] = done

    @settings(max_examples=20, deadline=None)
    @given(st.integers(64, 256 * 1024), st.floats(0.0, 1000.0))
    def test_bulk_completion_after_start(self, nbytes, now):
        device = MemoryDevice(ddr4_3200_config(80 * MIB))
        done = device.bulk_transfer(0, nbytes, False, now)
        assert done > now


class TestConservation:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, (8 * MIB) - 64),
                              st.booleans()),
                    min_size=1, max_size=50))
    def test_traffic_equals_sum_of_accesses(self, accesses):
        device = MemoryDevice(hbm2_config(8 * MIB))
        for index, (addr, is_write) in enumerate(accesses):
            device.access(addr, 64, is_write, index * 100.0)
        traffic = device.traffic()
        assert traffic.total_bytes == 64 * len(accesses)
        assert traffic.write_bytes == 64 * sum(
            1 for _, w in accesses if w)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
    def test_energy_nonnegative_and_additive(self, acts, reads, writes):
        model = EnergyModel(hbm2_config())
        breakdown = model.breakdown(
            EnergyCounters(activations=acts, read_bursts=reads,
                           write_bursts=writes), elapsed_ns=1000.0)
        assert breakdown.dynamic_pj >= 0
        assert breakdown.dynamic_pj == pytest.approx(
            acts * model.activate_pj + reads * model.read_burst_pj
            + writes * model.write_burst_pj)


class TestAllPresets:
    @pytest.mark.parametrize("factory", CONFIGS)
    def test_demand_latency_within_sane_bounds(self, factory):
        device = MemoryDevice(factory(32 * MIB))
        latency = device.access(0, 64, False, 0.0)  # issued at t=0
        # Unloaded DRAM access: single-digit to low-double-digit ns.
        assert 1.0 < latency < 200.0

    @pytest.mark.parametrize("factory", CONFIGS)
    def test_row_hit_faster_than_conflict(self, factory):
        config = factory(32 * MIB)
        device = MemoryDevice(config)
        device.access(0, 64, False, 0.0)
        hit = device.access(0, 64, False, 1_000.0) - 1_000.0
        row_stride = (config.geometry.row_bytes * config.geometry.channels
                      * config.geometry.banks_per_channel)
        conflict = device.access(row_stride, 64, False, 2_000.0) - 2_000.0
        assert hit < conflict

    @pytest.mark.parametrize("factory", CONFIGS)
    def test_stacked_parts_have_more_bandwidth(self, factory):
        config = factory()
        if config.is_stacked:
            assert config.peak_bandwidth_gbs > 200
        else:
            assert config.peak_bandwidth_gbs < 100
