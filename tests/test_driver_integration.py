"""Integration tests for the simulation driver and cross-cutting flows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import NoHBMController, make_controller
from repro.core import BumblebeeController
from repro.mem import ddr4_3200_config, hbm2_config
from repro.sim import CpuModel, MemoryRequest, SimulationDriver
from repro.traces import PackedTrace, SyntheticSpec, SyntheticTraceGenerator

MIB = 1 << 20
HBM = hbm2_config(8 * MIB)
DRAM = ddr4_3200_config(80 * MIB)


def trace_of(n, footprint_mb=16, seed=3, **kwargs):
    spec = SyntheticSpec("w", footprint_mb * MIB,
                         kwargs.pop("spatial", 0.6),
                         kwargs.pop("temporal", 0.6),
                         kwargs.pop("mpki", 16.0), **kwargs)
    return SyntheticTraceGenerator(spec, seed=seed).generate_packed(n)


class TestDriver:
    def test_result_accounting(self):
        driver = SimulationDriver()
        trace = trace_of(2000)
        result = driver.run(NoHBMController(DRAM), trace, workload="w")
        assert result.requests == 2000
        assert result.instructions == sum(r.icount for r in trace)
        assert result.elapsed_ns > 0
        assert result.avg_latency_ns > 0

    def test_max_requests_cap(self):
        driver = SimulationDriver()
        result = driver.run(NoHBMController(DRAM), trace_of(2000),
                            workload="w", max_requests=500)
        assert result.requests == 500

    def test_warmup_excluded_from_measurement(self):
        driver = SimulationDriver()
        trace = trace_of(3000)
        warm = driver.run(NoHBMController(DRAM), trace, workload="w",
                          warmup=1000)
        assert warm.requests == 2000
        assert warm.instructions == sum(r.icount for r in trace[1000:])

    def test_warmup_resets_traffic(self):
        driver = SimulationDriver()
        trace = trace_of(3000)
        cold = driver.run(NoHBMController(DRAM), trace, workload="w")
        warm = driver.run(NoHBMController(DRAM), trace, workload="w",
                          warmup=1000)
        assert warm.dram_traffic_bytes < cold.dram_traffic_bytes

    def test_warmup_keeps_placement_state(self):
        driver = SimulationDriver()
        trace = trace_of(4000, footprint_mb=2, temporal=0.9,
                         hot_fraction=0.5)
        controller = BumblebeeController(HBM, DRAM)
        warm = driver.run(controller, trace, workload="w", warmup=2000)
        # A warmed controller serves the hot set from HBM immediately.
        assert warm.hbm_hit_rate > 0.6

    def test_metadata_latency_accumulates(self):
        driver = SimulationDriver()
        controller = make_controller("Meta-H", HBM, DRAM)
        result = driver.run(controller, trace_of(500), workload="w")
        assert result.total_metadata_ns > 0
        assert result.metadata_latency_fraction > 0

    def test_normalisation_identity(self):
        driver = SimulationDriver()
        trace = trace_of(1000)
        a = driver.run(NoHBMController(DRAM), trace, workload="w")
        b = driver.run(NoHBMController(DRAM), trace, workload="w")
        assert a.normalised_ipc(b) == pytest.approx(1.0)
        assert a.normalised_traffic(b, "dram") == pytest.approx(1.0)

    def test_normalised_traffic_rejects_unknown_device(self):
        driver = SimulationDriver()
        trace = trace_of(100)
        a = driver.run(NoHBMController(DRAM), trace, workload="w")
        with pytest.raises(ValueError):
            a.normalised_traffic(a, "sram")

    def test_page_fault_penalty_charged(self):
        driver = SimulationDriver()
        beyond = DRAM.geometry.capacity_bytes + (1 << 20)
        trace = PackedTrace.from_requests(
            MemoryRequest(addr=beyond + i * 64, icount=100)
            for i in range(100))
        result = driver.run(NoHBMController(DRAM), trace, workload="w")
        assert result.controller_stats.get("page_faults") == 100
        assert result.avg_latency_ns > NoHBMController.PAGE_FAULT_NS


class TestCrossDesignInvariants:
    """Properties that must hold for every design on every trace."""

    DESIGNS = ("Banshee", "AlloyCache", "UnisonCache", "Chameleon",
               "Hybrid2", "Bumblebee")

    @pytest.mark.parametrize("design", DESIGNS)
    def test_latency_positive_and_bounded(self, design):
        controller = make_controller(design, HBM, DRAM,
                                     sram_bytes=16 * 1024)
        driver = SimulationDriver()
        result = driver.run(controller, trace_of(3000), workload="w")
        assert 0 < result.avg_latency_ns < 10_000

    @pytest.mark.parametrize("design", DESIGNS)
    def test_hit_rate_in_unit_interval(self, design):
        controller = make_controller(design, HBM, DRAM,
                                     sram_bytes=16 * 1024)
        result = SimulationDriver().run(controller, trace_of(3000),
                                        workload="w")
        assert 0.0 <= result.hbm_hit_rate <= 1.0

    @pytest.mark.parametrize("design", DESIGNS)
    def test_demand_reads_plus_writes_equals_requests(self, design):
        controller = make_controller(design, HBM, DRAM,
                                     sram_bytes=16 * 1024)
        result = SimulationDriver().run(controller, trace_of(2000),
                                        workload="w")
        stats = result.controller_stats
        assert stats.get("demand_reads", 0) + \
            stats.get("demand_writes", 0) == 2000

    @pytest.mark.parametrize("design", DESIGNS)
    def test_overfetch_never_exceeds_fetched(self, design):
        controller = make_controller(design, HBM, DRAM,
                                     sram_bytes=16 * 1024)
        SimulationDriver().run(controller,
                               trace_of(4000, spatial=0.3, temporal=0.3),
                               workload="w")
        assert controller.stats.get("overfetch_bytes") <= \
            controller.stats.get("fetched_bytes")


class TestPropertyBased:
    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95),
           st.integers(0, 1000))
    def test_bumblebee_invariants_hold_for_any_locality(self, spatial,
                                                        temporal, seed):
        spec = SyntheticSpec("p", 8 * MIB, spatial, temporal, mpki=16.0)
        trace = SyntheticTraceGenerator(spec, seed=seed).generate_packed(1200)
        controller = BumblebeeController(HBM, DRAM)
        SimulationDriver().run(controller, trace, workload="p")
        controller.check_invariants()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 8))
    def test_cpu_cores_do_not_change_request_count(self, cores):
        driver = SimulationDriver(CpuModel(cores=cores))
        result = driver.run(NoHBMController(DRAM), trace_of(500),
                            workload="w")
        assert result.requests == 500
