"""Tests for the pure movement-decision policy and the metadata model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BumblebeeConfig,
    MovementAction,
    SetCondition,
    decide_dram_access,
    derive_geometry,
    metadata_sizes,
    should_swap,
    should_switch_to_mhbm,
    spatial_locality,
)
from repro.core.metadata import (
    SRAM_BUDGET_BYTES,
    alloy_metadata_bytes,
    banshee_metadata_bytes,
    chameleon_metadata_bytes,
    hybrid2_metadata_bytes,
    unison_metadata_bytes,
)

GIB = 1 << 30


def condition(sl=0, rh=1.0, hotness=0, threshold=0):
    return SetCondition(sl=sl, rh=rh, hotness=hotness, threshold=threshold)


class TestSpatialLocality:
    def test_equation_one(self):
        assert spatial_locality(na=5, nn=2, nc=1) == 2

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    def test_bounded_by_ways(self, na, nn, nc):
        assert abs(spatial_locality(na, nn, nc)) <= na + nn + nc or \
            spatial_locality(na, nn, nc) == na - nn - nc


class TestDecideDramAccess:
    def test_strong_spatial_low_rh_migrates(self):
        assert decide_dram_access(condition(sl=1, rh=0.5)) \
            is MovementAction.MIGRATE

    def test_weak_spatial_low_rh_caches(self):
        assert decide_dram_access(condition(sl=0, rh=0.5)) \
            is MovementAction.CACHE_BLOCK

    def test_high_rh_requires_hotness(self):
        cold = condition(sl=1, rh=1.0, hotness=2, threshold=5)
        assert decide_dram_access(cold) is MovementAction.NONE
        hot = condition(sl=1, rh=1.0, hotness=6, threshold=5)
        assert decide_dram_access(hot) is MovementAction.MIGRATE

    def test_high_rh_weak_spatial_hot_caches(self):
        hot = condition(sl=-1, rh=1.0, hotness=6, threshold=5)
        assert decide_dram_access(hot) is MovementAction.CACHE_BLOCK

    def test_no_fallback_when_adaptive(self):
        # Weak spatial but caching disallowed: adaptive mode does nothing.
        c = condition(sl=-1, rh=0.5)
        assert decide_dram_access(c, chbm_allowed=False) \
            is MovementAction.NONE

    def test_fallback_migrates_when_hot(self):
        c = condition(sl=-1, rh=0.5, hotness=3, threshold=1)
        assert decide_dram_access(c, chbm_allowed=False,
                                  allow_fallback=True) \
            is MovementAction.MIGRATE

    def test_fallback_still_hotness_gated(self):
        c = condition(sl=-1, rh=0.5, hotness=1, threshold=1)
        assert decide_dram_access(c, chbm_allowed=False,
                                  allow_fallback=True) \
            is MovementAction.NONE

    def test_fallback_caches_when_mhbm_unavailable(self):
        c = condition(sl=1, rh=0.5, hotness=3, threshold=1)
        assert decide_dram_access(c, mhbm_allowed=False,
                                  allow_fallback=True) \
            is MovementAction.CACHE_BLOCK

    def test_nothing_allowed_is_none(self):
        c = condition(sl=1, rh=0.0, hotness=9, threshold=0)
        assert decide_dram_access(c, chbm_allowed=False,
                                  mhbm_allowed=False,
                                  allow_fallback=True) \
            is MovementAction.NONE

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-8, 8), st.floats(0.0, 1.0), st.integers(0, 255),
           st.integers(0, 255), st.booleans(), st.booleans(), st.booleans())
    def test_never_returns_disallowed_action(self, sl, rh, hot, thr,
                                             chbm, mhbm, fallback):
        action = decide_dram_access(condition(sl, rh, hot, thr),
                                    chbm_allowed=chbm, mhbm_allowed=mhbm,
                                    allow_fallback=fallback)
        if action is MovementAction.MIGRATE:
            assert mhbm
        if action is MovementAction.CACHE_BLOCK:
            assert chbm


class TestSwitchAndSwap:
    def test_switch_requires_most_blocks(self):
        assert should_switch_to_mhbm(16, most_blocks_threshold=16)
        assert not should_switch_to_mhbm(15, most_blocks_threshold=16)

    def test_static_partitions_never_switch(self):
        assert not should_switch_to_mhbm(32, 16, adaptive=False)

    def test_swap_strictly_hotter(self):
        assert should_swap(hotness=5, coldest_counter=4)
        assert not should_swap(hotness=4, coldest_counter=4)


class TestMetadataModel:
    def test_paper_scale_budget(self):
        """At 1GB/10GB with the paper's best config, the model lands in
        the paper's few-hundred-KB range and fits 512KB SRAM."""
        config = BumblebeeConfig()
        geometry = derive_geometry(config, 1 * GIB, 10 * GIB)
        sizes = metadata_sizes(config, geometry)
        assert 200 * 1024 < sizes.total_bytes < 512 * 1024
        assert sizes.fits_sram()

    def test_component_ordering_matches_paper(self):
        """Paper: 110KB PRT / 136KB BLE / 88KB hotness — BLE largest,
        hotness smallest."""
        config = BumblebeeConfig()
        geometry = derive_geometry(config, 1 * GIB, 10 * GIB)
        sizes = metadata_sizes(config, geometry)
        assert sizes.ble_bytes > sizes.hotness_bytes
        assert sizes.prt_bytes > sizes.hotness_bytes

    def test_smaller_blocks_cost_more_metadata(self):
        geometry_args = (1 * GIB, 10 * GIB)
        small = metadata_sizes(BumblebeeConfig(block_bytes=1024),
                               derive_geometry(
                                   BumblebeeConfig(block_bytes=1024),
                                   *geometry_args))
        large = metadata_sizes(BumblebeeConfig(block_bytes=4096),
                               derive_geometry(
                                   BumblebeeConfig(block_bytes=4096),
                                   *geometry_args))
        assert small.total_bytes > large.total_bytes

    def test_orders_of_magnitude_below_prior_designs(self):
        """The paper's 1-2 orders-of-magnitude claim."""
        config = BumblebeeConfig()
        geometry = derive_geometry(config, 1 * GIB, 10 * GIB)
        bumblebee = metadata_sizes(config, geometry).total_bytes
        assert hybrid2_metadata_bytes(1 * GIB, 10 * GIB) > 10 * bumblebee
        assert alloy_metadata_bytes(1 * GIB) > 10 * bumblebee

    def test_prior_designs_exceed_sram(self):
        assert hybrid2_metadata_bytes(1 * GIB, 10 * GIB) > SRAM_BUDGET_BYTES
        assert alloy_metadata_bytes(1 * GIB) > SRAM_BUDGET_BYTES
        assert chameleon_metadata_bytes(1 * GIB, 10 * GIB) \
            > SRAM_BUDGET_BYTES

    def test_all_models_positive(self):
        assert unison_metadata_bytes(1 * GIB) > 0
        assert banshee_metadata_bytes(1 * GIB, 10 * GIB) > 0


class TestBumblebeeConfig:
    def test_defaults_match_paper_best(self):
        config = BumblebeeConfig()
        assert config.page_bytes == 64 * 1024
        assert config.block_bytes == 2 * 1024
        assert config.hbm_ways == 8
        assert config.hot_queue_dram_entries == 8
        assert config.blocks_per_page == 32
        assert config.most_blocks_threshold == 13  # ceil(32 * 0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            BumblebeeConfig(page_bytes=65536, block_bytes=3000)
        with pytest.raises(ValueError):
            BumblebeeConfig(block_bytes=96)
        with pytest.raises(ValueError):
            BumblebeeConfig(fixed_chbm_ways=9)
        with pytest.raises(ValueError):
            BumblebeeConfig(most_blocks_fraction=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("counter_bits", 0, "counter_bits must be positive, got 0"),
        ("counter_bits", -1, "counter_bits must be positive, got -1"),
        ("zombie_patience", 0, "zombie_patience must be positive"),
        ("zombie_patience", -1, "zombie_patience must be positive"),
        ("hmf_batch_sets", 0, "hmf_batch_sets must be positive"),
        ("hmf_batch_sets", -3, "hmf_batch_sets must be positive"),
        ("hot_queue_dram_entries", 0,
         "hot_queue_dram_entries must be positive"),
        ("hmf_cooldown_requests", 0,
         "hmf_cooldown_requests must be positive, got 0"),
        ("hmf_cooldown_requests", -5,
         "hmf_cooldown_requests must be positive, got -5"),
        ("age_interval", -1, "age_interval must be non-negative"),
        ("prefetch_blocks", -1, "prefetch_blocks must be non-negative"),
        ("zombie_patience", True,
         "zombie_patience must be a positive integer, got True"),
        ("counter_bits", 2.5, "counter_bits must be a positive integer"),
        ("fixed_chbm_ways", 2.5,
         "fixed_chbm_ways must be a non-negative integer, got 2.5"),
        ("age_interval", "8",
         "age_interval must be a non-negative integer, got '8'"),
        ("most_blocks_fraction", "abc",
         r"most_blocks_fraction must be a real number in \(0, 1\], "
         "got 'abc'"),
        ("most_blocks_fraction", True,
         "most_blocks_fraction must be a real number"),
        ("most_blocks_fraction", 0.0,
         r"most_blocks_fraction must be in \(0, 1\], got 0.0"),
        ("most_blocks_fraction", float("nan"),
         "most_blocks_fraction must be in")])
    def test_rejects_out_of_range_tunables(self, field, value, message):
        """Every tunable is a sweepable spec param: a value outside its
        range raises naming the field instead of running."""
        with pytest.raises(ValueError, match=message):
            BumblebeeConfig(**{field: value})

    def test_accepts_tunables_at_their_bounds(self):
        config = BumblebeeConfig(
            counter_bits=1, zombie_patience=1, hmf_batch_sets=1,
            hot_queue_dram_entries=1, hmf_cooldown_requests=1,
            age_interval=0, prefetch_blocks=0)
        assert config.counter_max == 1
