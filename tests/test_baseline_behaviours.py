"""Adversarial behavioural tests: each baseline exhibits its published
strengths and weaknesses on crafted access patterns."""

import pytest

from repro.baselines import make_controller
from repro.mem import ddr4_3200_config, hbm2_config
from repro.sim import MemoryRequest, SimulationDriver
from repro.traces import PackedTrace, SyntheticSpec, SyntheticTraceGenerator

MIB = 1 << 20
HBM = hbm2_config(8 * MIB)
DRAM = ddr4_3200_config(80 * MIB)


def run(design, trace, warmup=0):
    controller = make_controller(design, HBM, DRAM, sram_bytes=16 * 1024)
    result = SimulationDriver().run(controller, trace, workload="t",
                                    warmup=warmup)
    return controller, result


def pattern(spatial, temporal, n=12000, footprint_mb=16, hot=0.1,
            seed=21):
    spec = SyntheticSpec("p", footprint_mb * MIB, spatial, temporal,
                         mpki=16.0, hot_fraction=hot)
    return SyntheticTraceGenerator(spec, seed=seed).generate_packed(n)


class TestAlloyCharacter:
    def test_strong_on_line_reuse(self):
        """64B-grain reuse is Alloy's one sweet spot."""
        trace = pattern(spatial=0.1, temporal=0.95, hot=0.02)
        _, result = run("AlloyCache", trace, warmup=4000)
        assert result.hbm_hit_rate > 0.4

    def test_no_spatial_benefit(self):
        """A pure streaming pattern never hits (no prefetch at 64B)."""
        trace = PackedTrace.from_requests(
            MemoryRequest(addr=i * 64, icount=62) for i in range(8000))
        _, result = run("AlloyCache", trace)
        assert result.hbm_hit_rate < 0.05


class TestUnisonCharacter:
    def test_footprint_prediction_saves_fetches_second_round(self):
        """Second residency fetches only the learned footprint."""
        controller = make_controller("UnisonCache", HBM, DRAM)
        sets = controller._sets
        now = 0.0
        # Round 1: touch 3 lines of page 0, then flush the set.
        for offset in (0, 64, 128):
            controller.access(MemoryRequest(addr=offset), now)
            now += 50.0
        for i in range(1, 5):
            controller.access(MemoryRequest(addr=i * sets * 4096), now)
            now += 50.0
        fetched_before = controller.stats.get("fetched_bytes")
        # Round 2: page 0 misses again; the footprint (3 lines + demand)
        # is fetched rather than one line at a time.
        controller.access(MemoryRequest(addr=0), now)
        fetched = controller.stats.get("fetched_bytes") - fetched_before
        assert fetched == 3 * 64  # learned footprint, one fill

    def test_tag_probe_on_every_miss(self):
        trace = pattern(spatial=0.2, temporal=0.1, footprint_mb=32)
        _, result = run("UnisonCache", trace)
        assert result.metadata_latency_fraction > 0.05


class TestBansheeCharacter:
    def test_resists_scan_pollution(self):
        """A one-pass scan must not evict Banshee's hot pages."""
        controller = make_controller("Banshee", HBM, DRAM)
        now = 0.0
        hot_addrs = [i * 4096 for i in range(32)]
        for _ in range(40):                      # heat 32 pages
            for addr in hot_addrs:
                controller.access(MemoryRequest(addr=addr), now)
                now += 20.0
        for i in range(4000):                    # scan 16MB once
            controller.access(
                MemoryRequest(addr=(1 << 24) + i * 4096), now)
            now += 20.0
        hits = 0
        for addr in hot_addrs:                   # hot set still resident?
            if controller.access(MemoryRequest(addr=addr), now).hbm_hit:
                hits += 1
            now += 20.0
        assert hits >= 24


class TestChameleonCharacter:
    def test_one_sector_per_group_limits_coverage(self):
        """Two hot segments in the same group fight over one HBM slot."""
        controller = make_controller("Chameleon", HBM, DRAM,
                                     sram_bytes=16 * 1024)
        groups = controller._groups_count
        a = groups * 2048          # member 1, group 0
        b = 2 * groups * 2048      # member 2, group 0
        now = 0.0
        hits = 0
        for i in range(400):
            for addr in (a, b):    # alternate two same-group segments
                result = controller.access(MemoryRequest(addr=addr), now)
                hits += result.hbm_hit
                now += 20.0
        # At most one of the two can be near at a time.
        assert hits <= 400 + controller.stats.get("sector_swaps") * 2


class TestHybrid2Character:
    def test_fixed_chbm_thrashes_on_wide_hot_set(self):
        """A hot block set larger than the fixed cHBM churns it."""
        controller = make_controller("Hybrid2", HBM, DRAM,
                                     sram_bytes=16 * 1024)
        chbm_blocks = controller._cache_sets * 8
        hot_blocks = chbm_blocks * 3
        now = 0.0
        for sweep in range(3):
            for i in range(hot_blocks):
                controller.access(
                    MemoryRequest(addr=i * 256 * 64), now)  # distinct sets
                now += 10.0
        assert controller.stats.get("block_evictions") > chbm_blocks


class TestBumblebeeCharacter:
    def test_serves_both_patterns_simultaneously(self):
        """A half-streaming, half-pointer-chasing mix: both halves get
        served from HBM (the paper's core adaptive-ratio claim)."""
        from repro.traces import build_mix, mix_trace, member_share
        from repro.traces import SystemScale
        members = build_mix(["xz", "wrf"], scale=SystemScale(1 / 256))
        trace = list(mix_trace(members, 40000))
        controller = make_controller("Bumblebee", HBM, DRAM,
                                     sram_bytes=16 * 1024)
        driver = SimulationDriver()
        # Measure per-region hit rates manually.
        boundary = members[1].spec.base_addr
        hits = {"xz": 0, "wrf": 0}
        counts = {"xz": 0, "wrf": 0}
        now = 0.0
        for index, request in enumerate(trace):
            result = controller.access(request, now)
            now += 50.0
            if index >= 20000:
                key = "xz" if request.addr < boundary else "wrf"
                hits[key] += result.hbm_hit
                counts[key] += 1
        # Both co-running locality classes get meaningful HBM service
        # at the same time (the adaptive-ratio claim).
        assert hits["xz"] / counts["xz"] > 0.5
        assert hits["wrf"] / counts["wrf"] > 0.5
        controller.check_invariants()
