"""Tests for the bank FSM and the two-priority channel model of a device,
plus closed-form timing and energy oracles for the Table I presets."""

from array import array

import pytest

from repro.designs import registry
from repro.mem import (
    DecodedAddress,
    MemoryDevice,
    TimingState,
    ddr4_3200_config,
    hbm2_config,
)
from repro.mem.device import MOVEMENT_CHUNK_BYTES
from repro.sim import SimulationDriver
from repro.traces.packed import PackedTrace, encode_request

MIB = 1 << 20


@pytest.fixture
def config():
    return hbm2_config(64 * MIB)


@pytest.fixture
def device(config):
    return MemoryDevice(config)


def at(device, row, bank=0, channel=0):
    """The device-local address of ``(channel, bank, row)``, column 0."""
    return device.mapper.encode(DecodedAddress(channel=channel, bank=bank,
                                               row=row, column_byte=0))


def bank_slot(device, bank=0, channel=0):
    return device.bank_base + channel * device.banks_per_channel + bank


class TestBank:
    def test_first_access_is_closed(self, device, config):
        device.access(at(device, 5), 64, False, 0.0)
        s, b = device.state, bank_slot(device)
        assert (s.closed[b], s.hits[b], s.conflicts[b]) == (1, 0, 0)
        assert s.activations[device.chan_base] == 1
        assert s.open_row[b] == 5
        assert s.bank_busy[b] == pytest.approx(
            config.timings.row_closed_ns)

    def test_second_access_same_row_hits(self, device, config):
        device.access(at(device, 5), 64, False, 0.0)
        done = device.access(at(device, 5), 64, False, 100.0)
        s = device.state
        assert s.hits[bank_slot(device)] == 1
        assert s.activations[device.chan_base] == 1
        assert done - 100.0 == pytest.approx(
            config.timings.row_hit_ns + config.burst_ns(64))

    def test_different_row_conflicts(self, device, config):
        device.access(at(device, 5), 64, False, 0.0)
        done = device.access(at(device, 6), 64, False, 100.0)
        assert device.state.conflicts[bank_slot(device)] == 1
        assert done - 100.0 == pytest.approx(
            config.timings.row_conflict_ns + config.burst_ns(64))

    def test_bank_self_serialises(self, device, config):
        device.access(at(device, 5), 64, False, 0.0)
        device.access(at(device, 5), 64, False, 0.0)  # issued while busy
        t = config.timings
        assert device.state.bank_busy[bank_slot(device)] == pytest.approx(
            t.row_closed_ns + t.row_hit_ns)

    def test_statistics_count(self, device):
        device.access(at(device, 1), 64, False, 0.0)
        device.access(at(device, 1), 64, False, 50.0)
        device.access(at(device, 2), 64, False, 100.0)
        assert device.row_buffer_stats() == {"closed": 1, "hits": 1,
                                             "conflicts": 1}

    def test_reset_restores_initial_state(self, device):
        device.access(at(device, 1), 64, False, 0.0)
        device.reset()
        s, b = device.state, bank_slot(device)
        assert s.open_row[b] == -1
        assert s.bank_busy[b] == 0.0
        assert s.hits[b] == s.closed[b] == s.conflicts[b] == 0
        assert device.check_consistent() == []


class TestChannelDemand:
    def test_demand_latency_includes_burst(self, device, config):
        done = device.access(0, 64, False, 0.0)
        expected = config.timings.row_closed_ns + config.burst_ns(64)
        assert done == pytest.approx(expected)

    def test_demand_serialises_on_bus(self, device):
        a = device.access(at(device, 0, bank=0), 64, False, 0.0)
        b = device.access(at(device, 0, bank=1), 64, False, 0.0)
        assert b > a  # different bank, same bus

    def test_traffic_counted(self, device):
        device.access(0, 64, False, 0.0)
        device.access(0, 64, True, 100.0)
        s = device.state
        assert s.read_bytes[device.chan_base] == 64
        assert s.write_bytes[device.chan_base] == 64

    def test_energy_counters(self, device):
        device.access(0, 64, False, 0.0)    # closed -> activation
        device.access(0, 64, False, 100.0)  # hit -> no activation
        s = device.state
        assert s.activations[device.chan_base] == 1
        assert s.read_bursts[device.chan_base] == 2


class TestChannelMovement:
    def test_backlog_accumulates_and_drains(self, device):
        device.bulk_transfer(0, 64 * 1024, False, now_ns=0.0)
        backlog = device.state.backlog[device.chan_base]
        assert backlog > 0
        device.access(0, 64, False, backlog + 1.0)  # drains first
        assert device.state.backlog[device.chan_base] == 0.0

    def test_demand_interference_bounded_by_chunk(self, device, config):
        device.bulk_transfer(0, 1 << 20, False, now_ns=0.0)  # huge backlog
        done = device.access(0, 64, False, 0.0)
        unloaded = config.timings.row_closed_ns + config.burst_ns(64)
        max_interference = config.burst_ns(MOVEMENT_CHUNK_BYTES)
        assert done <= unloaded + max_interference + 1e-9

    def test_movement_counts_traffic(self, device):
        device.bulk_transfer(0, 4096, True, now_ns=0.0)
        assert device.traffic().write_bytes == 4096

    def test_movement_completion_reflects_queue(self, device):
        first = device.bulk_transfer(0, 64 * 1024, False, 0.0)
        second = device.bulk_transfer(0, 64 * 1024, False, 0.0)
        assert second > first

    def test_reset_clears_backlog(self, device):
        device.bulk_transfer(0, 1 << 20, False, 0.0)
        device.reset()
        assert device.state.backlog[device.chan_slice] == \
            [0.0] * device.nchannels


class TestSharedState:
    def test_devices_number_globally_hbm_first(self):
        state = TimingState()
        hbm = MemoryDevice(hbm2_config(64 * MIB), state)
        dram = MemoryDevice(ddr4_3200_config(640 * MIB), state)
        assert (hbm.chan_base, hbm.bank_base) == (0, 0)
        assert (dram.chan_base, dram.bank_base) == (8, 64)
        assert len(state.bus_free) == 8 + 2
        assert len(state.open_row) == 64 + 16

    def test_reset_leaves_the_other_device_alone(self):
        state = TimingState()
        hbm = MemoryDevice(hbm2_config(64 * MIB), state)
        dram = MemoryDevice(ddr4_3200_config(640 * MIB), state)
        hbm.access(0, 64, False, 0.0)
        dram.access(0, 64, True, 0.0)
        hbm.reset()
        assert hbm.traffic().total_bytes == 0
        assert dram.traffic().write_bytes == 64
        assert dram.row_buffer_stats()["closed"] == 1
        assert hbm.check_consistent() == dram.check_consistent() == []


#: Hand-derived from Table I (cycles x tCK, 64B demand bursts).
#: HBM2: tCK 1ns, tCAS=tRCD=tRP=7, 128-bit bus -> 4 beats = 2ns.
#: DDR4-3200: tCK 0.625ns, tCAS=tRCD=tRP=22, 64-bit bus -> 8 beats = 2.5ns.
ORACLE = {
    "HBM2": {"factory": hbm2_config, "capacity": 64 * MIB,
             "closed": 14.0 + 2.0, "hit": 7.0 + 2.0,
             "conflict": 21.0 + 2.0, "burst": 2.0},
    "DDR4-3200": {"factory": ddr4_3200_config, "capacity": 640 * MIB,
                  "closed": 27.5 + 2.5, "hit": 13.75 + 2.5,
                  "conflict": 41.25 + 2.5, "burst": 2.5},
}


class TestClosedFormOracles:
    """Independent expectations, not derived from the model's own code."""

    @pytest.fixture(params=sorted(ORACLE))
    def case(self, request):
        spec = ORACLE[request.param]
        return MemoryDevice(spec["factory"](spec["capacity"])), spec

    def test_same_row_stream_costs_row_hit_plus_burst(self, case):
        device, spec = case
        latencies = [device.access(at(device, 3), 64, False, now) - now
                     for now in (0.0, 1000.0, 2000.0, 3000.0)]
        assert latencies == [spec["closed"]] + [spec["hit"]] * 3

    def test_row_ping_pong_costs_precharge_activate_cas(self, case):
        device, spec = case
        latencies = [device.access(at(device, 1 + k % 2), 64, False,
                                   1000.0 * k) - 1000.0 * k
                     for k in range(6)]
        assert latencies == [spec["closed"]] + [spec["conflict"]] * 5

    def test_back_to_back_row_hits_reach_peak_bus_bandwidth(self, case):
        device, spec = case
        banks = device.banks_per_channel
        for bank in range(banks):          # open one row in every bank
            device.access(at(device, 0, bank), 64, False, 0.0)
        dones = [device.access(at(device, 0, k % banks), 64, False,
                               10_000.0)
                 for k in range(4 * banks)]
        gaps = {b - a for a, b in zip(dones, dones[1:])}
        assert gaps == {spec["burst"]}
        per_channel_peak = (device.config.peak_bandwidth_gbs
                            / device.nchannels)
        assert 64 / spec["burst"] == pytest.approx(per_channel_peak)

    def test_energy_equals_counts_times_idd_formulae(self):
        def idd(rank, vdd, idd0, idd2n, idd3n, idd4r, idd4w, trc, tras,
                trp, tburst):
            act = rank * vdd * (idd0 * trc - (idd3n * tras + idd2n * trp))
            read = rank * vdd * (idd4r - idd3n) * tburst
            write = rank * vdd * (idd4w - idd3n) * tburst
            return act, read, write

        # Table I currents (mA) and timings (ns); the full-burst time is
        # burst_length (8) beats of the channel bus at double data rate.
        formulae = {
            "HBM2": idd(1, 1.2, 65, 40, 55, 390, 500, 24.0, 17.0, 7.0, 4.0),
            "DDR4-3200": idd(8, 1.2, 52, 37, 47, 143, 130, 74 * 0.625,
                             52 * 0.625, 22 * 0.625, 2.5),
        }
        for name, spec in ORACLE.items():
            device = MemoryDevice(spec["factory"](spec["capacity"]))
            device.access(at(device, 1), 64, False, 0.0)      # closed read
            device.access(at(device, 1), 64, False, 500.0)    # hit read
            device.access(at(device, 2), 64, True, 1000.0)    # conflict wr
            act, read, write = formulae[name]
            breakdown = device.energy(elapsed_ns=2000.0)
            assert breakdown.activate_pj == pytest.approx(2 * act)
            assert breakdown.read_pj == pytest.approx(2 * read)
            assert breakdown.write_pj == pytest.approx(write)
            assert breakdown.dynamic_pj == pytest.approx(
                2 * act + 2 * read + write)


class TestControllerOracles:
    """The closed forms above, through a controller on both engines:
    No-HBM serves every request from DDR4-3200, Ideal from HBM2.

    Arrivals are ``GAP_ICOUNT`` instructions apart (~347 ns at the paper
    CPU), well past a row cycle, so no request queues behind another.
    """

    GAP_ICOUNT = 10_000
    N = 12

    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    @pytest.mark.parametrize("design, device", [("No-HBM", "DDR4-3200"),
                                                ("Ideal", "HBM2")])
    @pytest.mark.parametrize("pattern, steady", [("same-row", "hit"),
                                                 ("ping-pong", "conflict")])
    def test_stream_total_latency(self, engine, design, device, pattern,
                                  steady):
        controller = registry.build(
            design, hbm2_config(ORACLE["HBM2"]["capacity"]),
            ddr4_3200_config(ORACLE["DDR4-3200"]["capacity"]))
        serving = controller.hbm if design == "Ideal" else controller.dram
        assert serving.name == device
        if pattern == "same-row":
            # Successive lines of one row in one bank.
            addrs = [serving.mapper.encode(DecodedAddress(
                channel=0, bank=0, row=3, column_byte=64 * k))
                for k in range(self.N)]
        else:
            # Two rows of one bank, alternating.
            addrs = [at(serving, 1 + k % 2) for k in range(self.N)]
        trace = PackedTrace(array("Q", [
            encode_request(addr, False, self.GAP_ICOUNT) for addr in addrs]))
        driver = SimulationDriver()
        result = driver.run(controller, trace, engine=engine)
        assert driver.last_engine == ("scalar" if engine == "scalar"
                                      else "vector")
        spec = ORACLE[device]
        assert result.requests == self.N
        assert result.total_latency_ns == pytest.approx(
            spec["closed"] + (self.N - 1) * spec[steady], rel=1e-12)
