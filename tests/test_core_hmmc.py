"""Integration tests for the Bumblebee controller (HMMC)."""

import pytest

from repro.core import (
    AllocationPolicy,
    BumblebeeConfig,
    BumblebeeController,
    WayMode,
)
from repro.mem import ddr4_3200_config, hbm2_config
from repro.sim import MemoryRequest, ServicedBy, SimulationDriver
from repro.traces import SyntheticSpec, SyntheticTraceGenerator

MIB = 1 << 20
KIB = 1 << 10


def make_controller(config=None, hbm_mb=8, dram_mb=80):
    return BumblebeeController(hbm2_config(hbm_mb * MIB),
                               ddr4_3200_config(dram_mb * MIB),
                               config or BumblebeeConfig())


def hammer(controller, addrs, writes=False, start_ns=0.0, step_ns=50.0):
    """Drive a list of addresses through the controller."""
    now = start_ns
    results = []
    for addr in addrs:
        results.append(controller.access(
            MemoryRequest(addr=addr, is_write=writes), now))
        now += step_ns
    return results


class TestAccessPath:
    def test_first_access_allocates(self):
        controller = make_controller()
        controller.access(MemoryRequest(addr=0), 0.0)
        set_index, orig = controller.geometry.locate(0)
        assert controller.prt[set_index].is_allocated(orig)
        controller.check_invariants()

    def test_page_count_allocates_within_slots(self):
        controller = make_controller()
        page = controller.config.page_bytes
        for i in range(200):
            controller.access(MemoryRequest(addr=i * page), float(i * 50))
        controller.check_invariants()

    def test_mhbm_resident_page_hits_hbm(self):
        config = BumblebeeConfig(allocation=AllocationPolicy.HBM)
        controller = make_controller(config)
        first = controller.access(MemoryRequest(addr=0), 0.0)
        again = controller.access(MemoryRequest(addr=64), 100.0)
        assert first.serviced_by is ServicedBy.HBM
        assert again.hbm_hit

    def test_dram_page_served_from_dram(self):
        config = BumblebeeConfig(allocation=AllocationPolicy.DRAM)
        controller = make_controller(config)
        result = controller.access(MemoryRequest(addr=0), 0.0)
        assert result.serviced_by is ServicedBy.DRAM

    def test_cached_block_hits_after_fill(self):
        config = BumblebeeConfig(allocation=AllocationPolicy.DRAM)
        controller = make_controller(config)
        # First access misses and caches the block (SL<=0, low Rh).
        controller.access(MemoryRequest(addr=0), 0.0)
        result = controller.access(MemoryRequest(addr=64), 100.0)
        assert result.hbm_hit
        controller.check_invariants()

    def test_metadata_latency_zero_by_default(self):
        controller = make_controller()
        result = controller.access(MemoryRequest(addr=0), 0.0)
        assert result.metadata_ns == 0.0

    def test_meta_h_pays_metadata_latency(self):
        config = BumblebeeConfig(metadata_in_hbm=True)
        controller = make_controller(config)
        result = controller.access(MemoryRequest(addr=0), 0.0)
        assert result.metadata_ns > 0.0


class TestModeSwitch:
    def test_chbm_to_mhbm_switch_on_most_blocks(self):
        config = BumblebeeConfig(allocation=AllocationPolicy.DRAM)
        controller = make_controller(config)
        block = config.block_bytes
        # Touch more than half the blocks of page 0.
        addrs = [b * block for b in range(config.most_blocks_threshold + 1)]
        hammer(controller, addrs)
        assert controller.stats.get("switch_c2m") >= 1
        set_index, orig = controller.geometry.locate(0)
        slot = controller.prt[set_index].slot_of(orig)
        assert controller.geometry.is_hbm_slot(slot)
        controller.check_invariants()

    def test_static_partition_never_switches(self):
        config = BumblebeeConfig(allocation=AllocationPolicy.DRAM,
                                 fixed_chbm_ways=4)
        controller = make_controller(config)
        block = config.block_bytes
        addrs = [b * block for b in range(config.blocks_per_page)]
        hammer(controller, addrs)
        assert controller.stats.get("switch_c2m") == 0
        controller.check_invariants()

    def test_multiplexed_switch_moves_only_missing_blocks(self):
        config = BumblebeeConfig(allocation=AllocationPolicy.DRAM)
        controller = make_controller(config)
        block = config.block_bytes
        addrs = [b * block for b in range(config.most_blocks_threshold + 1)]
        hammer(controller, addrs)
        switch_bytes = controller.stats.get("mode_switch_bytes")
        assert 0 < switch_bytes < config.page_bytes

    def test_no_multi_switch_moves_full_page(self):
        config = BumblebeeConfig(allocation=AllocationPolicy.DRAM,
                                 multiplexed=False)
        controller = make_controller(config)
        block = config.block_bytes
        addrs = [b * block for b in range(config.most_blocks_threshold + 1)]
        hammer(controller, addrs)
        assert controller.stats.get("mode_switch_bytes") \
            >= config.page_bytes


class TestAllocation:
    def test_alloc_h_prefers_hbm(self):
        controller = make_controller(
            BumblebeeConfig(allocation=AllocationPolicy.HBM))
        page = controller.config.page_bytes
        hammer(controller, [i * page for i in range(4)])
        assert controller.stats.get("alloc_hbm") == 4

    def test_alloc_d_prefers_dram(self):
        controller = make_controller(
            BumblebeeConfig(allocation=AllocationPolicy.DRAM))
        page = controller.config.page_bytes
        hammer(controller, [i * page for i in range(4)])
        assert controller.stats.get("alloc_dram") == 4

    def test_alloc_h_falls_back_when_hbm_full(self):
        controller = make_controller(
            BumblebeeConfig(allocation=AllocationPolicy.HBM))
        g = controller.geometry
        page = controller.config.page_bytes
        # Touch more pages of one set than it has HBM ways.
        addrs = [(i * g.sets) * page for i in range(g.hbm_ways + 3)]
        hammer(controller, addrs)
        assert controller.stats.get("alloc_dram") == 3
        controller.check_invariants()

    def test_every_os_page_allocatable(self):
        """The whole flat OS space allocates without error (capacity
        invariant: original indexes == slots)."""
        controller = make_controller(hbm_mb=4, dram_mb=40)
        g = controller.geometry
        page = controller.config.page_bytes
        for orig in range(g.slots_per_set):
            controller.access(
                MemoryRequest(addr=(orig * g.sets) * page), orig * 50.0)
        rset = controller.prt[0]
        assert rset.allocated_count() == g.slots_per_set
        controller.check_invariants()


class TestEvictionAndBuffering:
    def fill_set_with_mhbm(self, controller, extra=0):
        """Allocate hbm_ways + extra pages of set 0 (HBM-first)."""
        g = controller.geometry
        page = controller.config.page_bytes
        addrs = [(i * g.sets) * page for i in range(g.hbm_ways + extra)]
        hammer(controller, addrs)
        return addrs

    def test_buffering_converts_mhbm_to_chbm(self):
        controller = make_controller(
            BumblebeeConfig(allocation=AllocationPolicy.HBM))
        self.fill_set_with_mhbm(controller)
        g = controller.geometry
        page = controller.config.page_bytes
        # A hot DRAM page wants in: repeated access builds hotness.
        hot_addr = (g.hbm_ways + 1) * g.sets * page
        hammer(controller, [hot_addr + i * 64 for i in range(40)])
        assert controller.stats.get("switch_m2c") >= 1
        controller.check_invariants()

    def test_buffered_page_evicts_at_full_page_cost(self):
        """A buffered (all-dirty) page's eviction writes the whole page
        back — the §III-E cost of the data living only in HBM."""
        controller = make_controller(
            BumblebeeConfig(allocation=AllocationPolicy.HBM))
        self.fill_set_with_mhbm(controller)
        g = controller.geometry
        page = controller.config.page_bytes
        hot_addr = (g.hbm_ways + 1) * g.sets * page
        hammer(controller, [hot_addr + i * 64 for i in range(40)])
        assert controller.stats.get("switch_m2c") >= 1
        assert controller.stats.get("chbm_evictions") >= 1
        assert controller.stats.get("writeback_bytes") >= page

    def test_overfetch_accounted_at_eviction(self):
        """A 2KB block fetched for one 64B line charges 2048-64 unused
        bytes when (and only when) the way is evicted."""
        controller = make_controller(
            BumblebeeConfig(allocation=AllocationPolicy.DRAM))
        hammer(controller, [0])
        assert controller.stats.get("overfetch_bytes") == 0  # resident
        set_index, _ = controller.geometry.locate(0)
        way = 0
        assert controller.ble[set_index][way].mode is WayMode.CHBM
        controller._evict_chbm_way(set_index, way, 1_000.0)
        assert controller.stats.get("overfetch_bytes") == 2048 - 64


class TestHighMemoryFootprint:
    def test_beyond_dram_address_triggers_flush(self):
        controller = make_controller()
        high_addr = controller.dram.capacity_bytes + 4096
        controller.access(MemoryRequest(addr=high_addr), 0.0)
        assert controller.stats.get("hmf_flushes") >= 1

    def test_flush_disables_chbm_in_batch(self):
        controller = make_controller()
        high_addr = controller.dram.capacity_bytes + 4096
        controller.access(MemoryRequest(addr=high_addr), 0.0)
        assert any(controller._chbm_disabled)

    def test_cooldown_reenables(self):
        controller = make_controller()
        high_addr = controller.dram.capacity_bytes + 4096
        controller.access(MemoryRequest(addr=high_addr), 0.0)
        for i in range(controller.config.hmf_cooldown_requests + 1):
            controller.access(MemoryRequest(addr=64 * i), 100.0 + i)
        assert not any(controller._chbm_disabled)

    def test_no_hmf_disables_footprint_machinery(self):
        controller = make_controller(BumblebeeConfig(hmf_enabled=False))
        high_addr = controller.dram.capacity_bytes + 4096
        controller.access(MemoryRequest(addr=high_addr), 0.0)
        assert controller.stats.get("hmf_flushes") == 0

    def test_os_visible_includes_hbm_when_adaptive(self):
        controller = make_controller()
        assert controller.os_visible_bytes() == \
            controller.dram.capacity_bytes + controller.hbm.capacity_bytes

    def test_os_visible_excludes_chbm_when_static(self):
        controller = make_controller(BumblebeeConfig(fixed_chbm_ways=8))
        assert controller.os_visible_bytes() == \
            controller.dram.capacity_bytes


class TestEndToEnd:
    @pytest.mark.parametrize("spatial,temporal", [(0.9, 0.9), (0.1, 0.9),
                                                  (0.9, 0.1), (0.3, 0.3)])
    def test_invariants_hold_under_load(self, spatial, temporal):
        controller = make_controller()
        spec = SyntheticSpec("load", footprint_bytes=24 * MIB,
                             spatial=spatial, temporal=temporal, mpki=16.0)
        trace = SyntheticTraceGenerator(spec, seed=9).generate_packed(8000)
        driver = SimulationDriver()
        result = driver.run(controller, trace, workload="load")
        controller.check_invariants()
        assert result.requests == 8000
        assert result.ipc > 0

    def test_faster_than_no_hbm_on_hot_workload(self):
        from repro.baselines import NoHBMController
        spec = SyntheticSpec("hot", footprint_bytes=4 * MIB, spatial=0.8,
                             temporal=0.9, mpki=20.0, hot_fraction=0.3)
        trace = SyntheticTraceGenerator(spec, seed=3).generate_packed(20000)
        driver = SimulationDriver()
        base = driver.run(NoHBMController(ddr4_3200_config(80 * MIB)),
                          trace, workload="hot")
        bee = driver.run(make_controller(), trace, workload="hot")
        assert bee.normalised_ipc(base) > 1.1

    def test_metadata_budget_scales_with_system(self):
        small = make_controller(hbm_mb=8, dram_mb=80)
        large = make_controller(hbm_mb=16, dram_mb=160)
        assert large.metadata_bytes() > small.metadata_bytes()

    def test_deterministic_replay(self):
        spec = SyntheticSpec("det", footprint_bytes=8 * MIB, spatial=0.5,
                             temporal=0.5, mpki=10.0)
        trace = SyntheticTraceGenerator(spec, seed=5).generate_packed(5000)
        driver = SimulationDriver()
        a = driver.run(make_controller(), trace, workload="det")
        b = driver.run(make_controller(), trace, workload="det")
        assert a.elapsed_ns == b.elapsed_ns
        assert a.controller_stats == b.controller_stats
