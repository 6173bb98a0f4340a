"""Tests for the baseline controllers and the shared framework."""

import pytest

from repro.baselines import (
    FIGURE7_VARIANTS,
    FIGURE8_DESIGNS,
    AlloyCacheController,
    BansheeController,
    ChameleonController,
    Hybrid2Controller,
    MetadataCache,
    NoHBMController,
    UnisonCacheController,
    make_controller,
)
from repro.mem import ddr4_3200_config, hbm2_config
from repro.sim import MemoryRequest, ServicedBy, SimulationDriver
from repro.traces import SyntheticSpec, SyntheticTraceGenerator

MIB = 1 << 20
HBM = hbm2_config(8 * MIB)
DRAM = ddr4_3200_config(80 * MIB)


def run_trace(controller, n=4000, spatial=0.5, temporal=0.7,
              footprint_mb=16):
    spec = SyntheticSpec("t", footprint_mb * MIB, spatial, temporal,
                         mpki=16.0, hot_fraction=0.1)
    trace = SyntheticTraceGenerator(spec, seed=11).generate_packed(n)
    return SimulationDriver().run(controller, trace, workload="t")


class TestFactory:
    @pytest.mark.parametrize("name", FIGURE8_DESIGNS + FIGURE7_VARIANTS
                             + ["No-HBM"])
    def test_every_design_constructs_and_runs(self, name):
        controller = make_controller(name, HBM, DRAM, sram_bytes=16 * 1024)
        result = run_trace(controller, n=1500)
        assert result.requests == 1500
        assert result.ipc > 0

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            make_controller("FancyCache", HBM, DRAM)

    def test_names_match(self):
        for name in FIGURE8_DESIGNS:
            controller = make_controller(name, HBM, DRAM)
            assert controller.name == name


class TestNoHBM:
    def test_everything_goes_to_dram(self):
        controller = NoHBMController(DRAM)
        result = run_trace(controller, n=1000)
        assert result.hbm_hits == 0
        assert result.dram_traffic_bytes > 0
        assert result.hbm_traffic_bytes == 0

    def test_os_visible_is_dram_only(self):
        controller = NoHBMController(DRAM)
        assert controller.os_visible_bytes() == DRAM.geometry.capacity_bytes


class TestAlloy:
    def test_second_access_hits(self):
        controller = AlloyCacheController(HBM, DRAM)
        controller.access(MemoryRequest(addr=0x1000), 0.0)
        result = controller.access(MemoryRequest(addr=0x1000), 100.0)
        assert result.hbm_hit

    def test_direct_mapped_conflict(self):
        controller = AlloyCacheController(HBM, DRAM)
        slots = controller._slots
        controller.access(MemoryRequest(addr=0), 0.0)
        controller.access(MemoryRequest(addr=slots * 64), 100.0)  # same slot
        result = controller.access(MemoryRequest(addr=0), 200.0)
        assert not result.hbm_hit

    def test_dirty_victim_written_back(self):
        controller = AlloyCacheController(HBM, DRAM)
        slots = controller._slots
        controller.access(MemoryRequest(addr=0, is_write=True), 0.0)
        controller.access(MemoryRequest(addr=slots * 64), 100.0)
        assert controller.stats.get("writeback_bytes") == 64

    def test_tags_consume_capacity(self):
        controller = AlloyCacheController(HBM, DRAM)
        # 72B TADs: fewer slots than 64B lines would allow.
        assert controller._slots < HBM.geometry.capacity_bytes // 64
        assert not controller.metadata_in_sram()

    def test_predictor_learns_misses(self):
        controller = AlloyCacheController(HBM, DRAM)
        for i in range(50):
            controller.access(MemoryRequest(addr=i * (1 << 20)), i * 10.0)
        # After a long miss streak the MAP predicts miss: parallel access,
        # no serialised probe.
        before = controller.stats.get("metadata_accesses")
        assert controller.predictor_miss_rate < 0.5


class TestUnison:
    def test_footprint_predictor_learns(self):
        controller = UnisonCacheController(HBM, DRAM)
        sets = controller._sets
        addr = 0
        controller.access(MemoryRequest(addr=addr), 0.0)
        controller.access(MemoryRequest(addr=addr + 64), 10.0)
        # Evict by filling the same set with other pages.
        for i in range(1, 5):
            controller.access(
                MemoryRequest(addr=(i * sets) * 4096), 100.0 * i)
        page = 0
        assert controller._footprints.get(page, 0).bit_count() >= 2

    def test_miss_pays_tag_probe(self):
        controller = UnisonCacheController(HBM, DRAM)
        result = controller.access(MemoryRequest(addr=0), 0.0)
        assert result.metadata_ns > 0
        assert result.serviced_by is ServicedBy.DRAM

    def test_page_hit_after_fill(self):
        controller = UnisonCacheController(HBM, DRAM)
        controller.access(MemoryRequest(addr=128), 0.0)
        result = controller.access(MemoryRequest(addr=128), 100.0)
        assert result.hbm_hit


class TestBanshee:
    def test_lazy_insertion(self):
        controller = BansheeController(HBM, DRAM)
        result = run_trace(controller, n=2000)
        # Fills are sampled: far fewer page fills than misses.
        fills = result.controller_stats.get("page_fills", 0)
        misses = result.requests - result.hbm_hits
        assert fills < misses / 2

    def test_frequency_gate_rejects_cold(self):
        controller = BansheeController(HBM, DRAM)
        result = run_trace(controller, n=4000, temporal=0.1, spatial=0.1,
                           footprint_mb=64)
        assert result.controller_stats.get("replacement_rejected", 0) > 0

    def test_fills_far_rarer_than_hybrid2(self):
        """Banshee's bandwidth-efficiency mechanism: sampled, gated
        insertions fire far less often than Hybrid2's cache-every-block
        policy on a scatter-heavy workload."""
        banshee = BansheeController(HBM, DRAM)
        hybrid2 = Hybrid2Controller(HBM, DRAM, sram_bytes=16 * 1024)
        run_trace(banshee, n=6000, temporal=0.4, spatial=0.3)
        run_trace(hybrid2, n=6000, temporal=0.4, spatial=0.3)
        assert banshee.stats.get("page_fills") < \
            hybrid2.stats.get("block_fills") / 4


class TestChameleon:
    def test_swap_after_competition(self):
        controller = ChameleonController(HBM, DRAM, sram_bytes=16 * 1024)
        addr = controller._groups_count * 2048  # member 1 of group 0
        for i in range(controller.SWAP_THRESHOLD + 2):
            controller.access(MemoryRequest(addr=addr), i * 50.0)
        assert controller.stats.get("sector_swaps", 0) >= 1
        result = controller.access(MemoryRequest(addr=addr), 1000.0)
        assert result.hbm_hit

    def test_near_member_hits_immediately(self):
        controller = ChameleonController(HBM, DRAM, sram_bytes=16 * 1024)
        result = controller.access(MemoryRequest(addr=0), 0.0)  # member 0
        assert result.hbm_hit

    def test_metadata_pays_mal_when_oversized(self):
        controller = ChameleonController(HBM, DRAM, sram_bytes=1024)
        assert not controller.metadata_in_sram()
        result = run_trace(controller, n=3000, spatial=0.2, temporal=0.2,
                           footprint_mb=32)
        assert result.total_metadata_ns > 0


class TestHybrid2:
    def make(self):
        return Hybrid2Controller(HBM, DRAM, sram_bytes=16 * 1024)

    def test_caches_every_requested_block(self):
        controller = self.make()
        controller.access(MemoryRequest(addr=0), 0.0)
        assert controller.stats.get("block_fills") == 1
        result = controller.access(MemoryRequest(addr=0), 100.0)
        assert result.hbm_hit

    def test_promotion_after_most_blocks(self):
        controller = self.make()
        # Touch 6 of the 8 blocks of page 0.
        for block in range(6):
            controller.access(MemoryRequest(addr=block * 256), block * 50.0)
        assert controller.stats.get("promotions") == 1
        result = controller.access(MemoryRequest(addr=7 * 256), 1000.0)
        assert result.hbm_hit  # whole page now in mHBM

    def test_promotion_charges_mode_switch(self):
        controller = self.make()
        for block in range(6):
            controller.access(MemoryRequest(addr=block * 256), block * 50.0)
        assert controller.stats.get("mode_switch_bytes") >= 2048

    def test_fixed_chbm_fraction(self):
        controller = self.make()
        chbm_bytes = controller._cache_sets * 8 * 256
        assert chbm_bytes == pytest.approx(
            HBM.geometry.capacity_bytes / 16, rel=0.01)

    def test_os_visible_excludes_chbm(self):
        controller = self.make()
        assert controller.os_visible_bytes() < \
            DRAM.geometry.capacity_bytes + HBM.geometry.capacity_bytes


class TestMetadataCache:
    def test_small_table_always_hits(self):
        cache = MetadataCache(sram_bytes=64 * 1024, entry_bytes=8,
                              total_entries=100)
        assert cache.fits_sram
        assert all(cache.lookup(i) for i in range(100))

    def test_large_table_misses(self):
        cache = MetadataCache(sram_bytes=4096, entry_bytes=8,
                              total_entries=1 << 16)
        assert not cache.fits_sram
        for i in range(0, 1 << 16, 97):
            cache.lookup(i)
        assert cache.sram_misses > 0
        assert 0.0 < cache.miss_rate <= 1.0

    def test_hot_entries_hit_after_first_touch(self):
        cache = MetadataCache(sram_bytes=4096, entry_bytes=8,
                              total_entries=1 << 16)
        cache.lookup(5)
        assert cache.lookup(5)
