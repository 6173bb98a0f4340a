"""Tests for phase schedules, terminal plotting, and the oracle bound."""

import pytest

from repro.analysis import bar_chart, grouped_bars, heat_strip, sparkline
from repro.baselines import IdealHBMController
from repro.designs import registry
from repro.mem import ddr4_3200_config, hbm2_config
from repro.sim import SimulationDriver
from repro.traces import (
    QUADRANTS,
    Phase,
    PhaseSchedule,
    SyntheticSpec,
    markov_phases,
    table2_phases,
    windowed_hit_rates,
    workload_trace,
)

MIB = 1 << 20
HBM = hbm2_config(8 * MIB)
DRAM = ddr4_3200_config(80 * MIB)


class TestPhaseSchedule:
    def spec(self, name="p", spatial=0.5, temporal=0.5):
        return SyntheticSpec(name, 4 * MIB, spatial, temporal, mpki=16.0)

    def test_total_requests(self):
        schedule = PhaseSchedule(
            phases=[Phase(self.spec(), 100), Phase(self.spec(), 200)],
            cycles=3)
        assert schedule.total_requests == 900
        assert len(list(schedule.generate())) == 900

    def test_boundaries(self):
        schedule = PhaseSchedule(
            phases=[Phase(self.spec(), 100), Phase(self.spec(), 200)],
            cycles=2)
        assert schedule.boundaries() == [100, 300, 400]

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseSchedule(phases=[], cycles=1)
        with pytest.raises(ValueError):
            PhaseSchedule(phases=[Phase(self.spec(), 10)], cycles=0)
        with pytest.raises(ValueError):
            Phase(self.spec(), 0)

    def test_deterministic(self):
        make = lambda: PhaseSchedule(
            phases=[Phase(self.spec(), 300)], cycles=2, seed=9)
        assert list(make().generate()) == list(make().generate())

    def test_phases_share_address_space(self):
        schedule = table2_phases("mcf", requests_per_phase=200)
        addrs = [r.addr for r in schedule.generate()]
        footprint = schedule.phases[0].spec.footprint_bytes
        assert max(addrs) < footprint

    def test_table2_phases_preserve_mpki(self):
        schedule = table2_phases("roms", requests_per_phase=100)
        for phase in schedule.phases:
            assert phase.spec.mpki == 31.9

    def test_table2_phases_walk_quadrants(self):
        schedule = table2_phases("mcf", requests_per_phase=100)
        knobs = [(p.spec.spatial, p.spec.temporal)
                 for p in schedule.phases]
        assert knobs == [QUADRANTS[q] for q in
                         ("S+T+", "S-T+", "S+T-", "S-T-")]

    def test_markov_phase_count(self):
        specs = [self.spec("a"), self.spec("b")]
        schedule = markov_phases(specs, n_phases=7,
                                 requests_per_phase=50)
        assert len(schedule.phases) == 7

    def test_markov_validation(self):
        with pytest.raises(ValueError):
            markov_phases([], 3, 10)
        with pytest.raises(ValueError):
            markov_phases([self.spec()], 3, 10, self_loop=1.5)

    def test_windowed_hit_rates_sample_count(self):
        schedule = PhaseSchedule(
            phases=[Phase(self.spec(temporal=0.9), 2000)], cycles=1)
        controller = registry.build("Bumblebee", HBM, DRAM)
        samples = windowed_hit_rates(controller, schedule, window=500)
        assert len(samples) == 4
        assert all(0.0 <= s <= 1.0 for s in samples)


class TestPlotting:
    def test_bar_chart_contains_labels_and_values(self):
        text = bar_chart({"A": 2.0, "B": 1.0})
        assert "A" in text and "2.00" in text

    def test_bar_chart_scales_to_peak(self):
        text = bar_chart({"A": 2.0, "B": 1.0}, width=10)
        bars = [line.split()[1] for line in text.splitlines()]
        assert len(bars[0]) == 10
        assert len(bars[1]) == 5

    def test_bar_chart_baseline_marker(self):
        text = bar_chart({"A": 2.0, "B": 0.5}, width=10, baseline=1.0)
        assert "|" in text

    def test_bar_chart_validation(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            bar_chart({"A": -1.0})

    def test_heat_strip_range_label(self):
        text = heat_strip([0.0, 0.5, 1.0])
        assert text.endswith("0.00..1.00")

    def test_heat_strip_downsamples(self):
        text = heat_strip(list(range(100)), width=10)
        strip = text.split("]")[0][1:]
        assert len(strip) == 10

    def test_heat_strip_validation(self):
        with pytest.raises(ValueError):
            heat_strip([])

    def test_grouped_bars_missing_cell(self):
        text = grouped_bars({"X": {"high": 1.0}}, groups=("high", "low"))
        assert "-" in text

    def test_sparkline_compact(self):
        assert sparkline([1, 2, 3]).startswith("[")


class TestIdeal:
    def test_everything_hits(self):
        controller = IdealHBMController(HBM, DRAM)
        result = SimulationDriver().run(
            controller, workload_trace("leela", 2000), workload="leela")
        assert result.hbm_hit_rate == 1.0
        assert result.dram_traffic_bytes == 0

    def test_never_faults(self):
        controller = IdealHBMController(HBM, DRAM)
        from repro.sim import MemoryRequest
        beyond = DRAM.geometry.capacity_bytes * 100
        assert controller.page_fault_penalty_ns(
            MemoryRequest(addr=beyond)) == 0.0

    def test_bounds_real_designs(self):
        trace = workload_trace("mcf", 6000)
        driver = SimulationDriver()
        ideal = driver.run(IdealHBMController(HBM, DRAM), trace,
                           workload="mcf")
        bee = driver.run(registry.build("Bumblebee", HBM, DRAM), trace,
                         workload="mcf")
        assert bee.ipc <= ideal.ipc * 1.02

    def test_factory_builds_ideal(self):
        controller = registry.build("Ideal", HBM, DRAM)
        assert controller.name == "Ideal"
        assert controller.metadata_bytes() == 0
