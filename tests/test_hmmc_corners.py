"""Corner-path tests for the HMMC: swaps, flush rotation, failure modes."""

import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AllocationPolicy,
    BumblebeeConfig,
    BumblebeeController,
    WayMode,
)
from repro.mem import ddr4_3200_config, hbm2_config
from repro.sanitize import InvariantChecker
from repro.sim import CpuModel, MemoryRequest, SimulationDriver
from repro.traces.packed import PackedTrace, encode_request

MIB = 1 << 20


def make(config=None, hbm_mb=4, dram_mb=40):
    return BumblebeeController(hbm2_config(hbm_mb * MIB),
                               ddr4_3200_config(dram_mb * MIB),
                               config or BumblebeeConfig())


def touch(controller, addr, times=1, start=0.0, is_write=False):
    now = start
    result = None
    for _ in range(times):
        result = controller.access(MemoryRequest(addr=addr,
                                                 is_write=is_write), now)
        now += 50.0
    return result, now


class TestFullSetSwap:
    def fill_set_completely(self, controller):
        """Allocate every slot of set 0 (m DRAM + n HBM pages)."""
        g = controller.geometry
        page = controller.config.page_bytes
        now = 0.0
        for orig in range(g.slots_per_set):
            controller.access(
                MemoryRequest(addr=(orig * g.sets) * page), now)
            now += 50.0
        return now

    def test_swap_triggers_when_set_full(self):
        config = BumblebeeConfig(allocation=AllocationPolicy.HBM,
                                 hmf_enabled=True)
        controller = make(config)
        g = controller.geometry
        page = controller.config.page_bytes
        now = self.fill_set_completely(controller)
        # Hammer one DRAM-resident page until it is hotter than the
        # coldest HBM page; §III-E HMF rule (4) must swap it in.
        victim_orig = None
        rset = controller.prt[0]
        for orig in range(g.slots_per_set):
            if not g.is_hbm_slot(rset.slot_of(orig)):
                victim_orig = orig
                break
        assert victim_orig is not None
        addr = (victim_orig * g.sets) * page
        for i in range(1200):
            controller.access(
                MemoryRequest(addr=addr + (i % 1024) * 64), now)
            now += 20.0
        assert controller.stats.get("swaps") >= 1
        assert g.is_hbm_slot(controller.prt[0].slot_of(victim_orig))
        controller.check_invariants()

    def test_swap_preserves_capacity(self):
        """After a swap, the set still holds every allocated page."""
        config = BumblebeeConfig(allocation=AllocationPolicy.HBM)
        controller = make(config)
        g = controller.geometry
        now = self.fill_set_completely(controller)
        rset = controller.prt[0]
        assert rset.allocated_count() == g.slots_per_set
        page = controller.config.page_bytes
        for i in range(1500):
            controller.access(
                MemoryRequest(addr=(i % g.slots_per_set) * g.sets * page),
                now)
            now += 20.0
        assert rset.allocated_count() == g.slots_per_set
        controller.check_invariants()


class TestGlobalFlushRotation:
    def test_cursor_rotates_through_sets(self):
        config = BumblebeeConfig(hmf_batch_sets=2)
        controller = make(config)
        high = controller.dram.capacity_bytes + 4096
        controller._hmf_flush_interval = 1  # flush a batch per trigger
        now = 0.0
        for _ in range(controller.geometry.sets):
            controller.access(MemoryRequest(addr=high), now)
            now += 50.0
        assert all(controller._chbm_disabled)

    def test_disabled_sets_skip_caching(self):
        controller = make(BumblebeeConfig(
            allocation=AllocationPolicy.DRAM))
        controller._chbm_disabled = [True] * controller.geometry.sets
        touch(controller, 0)
        assert controller.stats.get("chbm_insertions") == 0

    def test_reenable_restores_caching(self):
        controller = make(BumblebeeConfig(
            allocation=AllocationPolicy.DRAM, hmf_cooldown_requests=4))
        high = controller.dram.capacity_bytes + 4096
        now = 0.0
        controller.access(MemoryRequest(addr=high), now)
        assert any(controller._chbm_disabled)
        for i in range(6):
            now += 50.0
            controller.access(MemoryRequest(addr=64 * i), now)
        assert not any(controller._chbm_disabled)


    @given(beyond=st.lists(st.booleans(), min_size=1, max_size=60),
           window=st.integers(1, 6), interval=st.integers(1, 4),
           cooldown=st.integers(0, 6), streak=st.integers(0, 9))
    @settings(max_examples=200, deadline=None)
    def test_epoch_trajectory_matches_footprint_check(
            self, beyond, window, interval, cooldown, streak):
        """Pass 1's array form of the HMF counters (``_hmf_trajectory``)
        agrees with stepping ``_global_footprint_check`` request by
        request: the same flush and re-enable requests, and the same
        cooldown and streak after each one."""
        controller = make(BumblebeeConfig(hmf_cooldown_requests=window))
        controller._hmf_flush_interval = interval
        controller._hmf_cooldown = min(cooldown, window)
        controller._hmf_streak = streak
        high = controller.dram.capacity_bytes
        addr = np.array([high if b else 0 for b in beyond], dtype=np.int64)
        planned = controller._hmf_trajectory(addr)
        events, after = [], []
        for a in addr.tolist():
            flushes = controller.stats.get("hmf_flushes")
            reenables = controller.stats.get("hmf_reenables")
            controller._global_footprint_check(a, 0.0)
            events.append(controller.stats.get("hmf_flushes") != flushes
                          or controller.stats.get("hmf_reenables")
                          != reenables)
            after.append((controller._hmf_cooldown,
                          controller._hmf_streak))
        if planned is None:
            assert not any(events)
            assert set(after) == {(0, streak)}
            return
        flags, cooldowns, streaks = planned
        assert flags.tolist() == events
        assert list(zip(cooldowns.tolist(), streaks.tolist())) == after


class TestOffChipEpochClass:
    """C-Only's off-chip class in the epoch engine's pass 1.

    With no mHBM ways, a DRAM-home access in a set whose cHBM a flush
    disabled can move nothing, and pass 1 commits it without running
    :meth:`access`.  The trace crosses DRAM capacity (one flush disables
    every set), stays below it past the cooldown so that the re-enable
    lands mid-epoch, and then flushes again; fresh pages are touched in
    bursts while the sets are disabled, so that requests join the class
    after their page's allocation.  ``age_interval`` 3 ages the hot
    queues inside the class's runs.
    """

    COOLDOWN = 600
    PAGE = 64 * 1024

    def build(self, age_interval):
        return BumblebeeController(
            hbm2_config(MIB), ddr4_3200_config(4 * MIB),
            BumblebeeConfig(fixed_chbm_ways=8, age_interval=age_interval,
                            hmf_cooldown_requests=self.COOLDOWN),
            name="C-Only")

    def trace(self, dram_bytes):
        rng = random.Random(11)
        page = self.PAGE
        out = []

        def below(pages, n):
            for _ in range(n):
                line = rng.randrange(4) + 32 * rng.randrange(4)
                out.append(encode_request(rng.choice(pages) * page
                                          + line * 64,
                                          rng.random() < 0.3, 3))

        def burst(pages):
            out.extend(encode_request(p * page + 64 * k, False, 3)
                       for p in pages for k in range(4))

        def beyond(n):
            out.extend(encode_request(dram_bytes + 64 * k, False, 3)
                       for k in range(n))

        below(range(24), 700)
        beyond(3)
        burst(range(24, 34))
        # Ten hot pages climb the hot queues while nothing may move, so
        # the counters (and their aging) steer the movement afterwards.
        below(range(10), self.COOLDOWN)
        below(range(34), 860)
        beyond(1)
        burst(range(34, 38))
        below(range(38), 200)
        return PackedTrace(array("Q", out))

    @pytest.mark.parametrize("age_interval", [0, 3])
    def test_epoch_engine_matches_scalar(self, age_interval):
        probe = self.build(age_interval)
        dram = probe.dram.capacity_bytes
        trace = self.trace(dram)
        addr = np.array([r.addr for r in trace], dtype=np.int64)
        events = probe._hmf_trajectory(addr)[0]
        reenable = np.flatnonzero(events & (addr < dram))
        assert len(reenable) == 1 and reenable[0] % 512, reenable
        scalar = SimulationDriver(CpuModel()).run(
            self.build(age_interval), trace, workload="offchip",
            engine="scalar")
        assert scalar.controller_stats["hmf_flushes"] == 2
        # The class's premise: a disabled set of a design without mHBM
        # ways holds no live way (check_invariants, every 50 requests).
        checker = InvariantChecker(epoch_requests=50)
        checked = SimulationDriver(CpuModel(), checker=checker).run(
            self.build(age_interval), trace, workload="offchip")
        assert checker.ok, checker.violations
        assert checked == scalar
        off_chip = scalar.requests - scalar.hbm_hits
        bridged = []
        for epoch in (1, 7, 512, None):
            driver = SimulationDriver(CpuModel(), vector_epoch=epoch)
            vector = driver.run(self.build(age_interval), trace,
                                workload="offchip", engine="auto")
            assert driver.last_engine == "vector"
            assert vector.to_record() == scalar.to_record(), epoch
            assert vector == scalar, epoch
            bridged.append(driver.last_policy_requests)
        # The class fires: fewer requests run through access than are
        # served off-chip.
        assert bridged[0] < off_chip
        # A request pure against the live tables at its turn is pure at
        # any epoch size (re-checks cover allocations and flushes).
        assert bridged == [bridged[0]] * 4, bridged


class TestBufferReheat:
    def test_reheated_buffer_switches_back_without_movement(self):
        """A buffered (cHBM, all-valid) page that re-heats flips back to
        mHBM via the most-blocks rule with zero mode-switch bytes."""
        controller = make(BumblebeeConfig(allocation=AllocationPolicy.HBM))
        g = controller.geometry
        page = controller.config.page_bytes
        now = 0.0
        for orig in range(g.hbm_ways):
            _, now = touch(controller, (orig * g.sets) * page,
                           start=now)
        # Force buffering by pressuring with a hot DRAM page.
        hot = (g.hbm_ways + 2) * g.sets * page
        for i in range(60):
            controller.access(MemoryRequest(addr=hot + (i % 32) * 64), now)
            now += 20.0
        full = (1 << controller.config.blocks_per_page) - 1
        buffered = [w for w in range(g.hbm_ways)
                    if controller.ble[0][w].mode is WayMode.CHBM
                    and controller.ble[0][w].valid == full]
        if not buffered:
            pytest.skip("pressure did not buffer in this configuration")
        way = buffered[0]
        owner = controller.ble[0][way].owner
        before = controller.stats.get("mode_switch_bytes")
        # Re-access the buffered page: block hits, then the most-blocks
        # rule flips it back to mHBM fetching nothing (all blocks valid).
        addr = (owner * g.sets) * page
        controller.access(MemoryRequest(addr=addr), now)
        assert controller.ble[0][way].mode is WayMode.MHBM
        assert controller.stats.get("mode_switch_bytes") == before
        controller.check_invariants()


class TestGeometryEdgeCases:
    def test_single_way_config(self):
        controller = make(BumblebeeConfig(hbm_ways=1), hbm_mb=4,
                          dram_mb=40)
        result, _ = touch(controller, 0, times=5)
        controller.check_invariants()

    def test_small_page_config(self):
        config = BumblebeeConfig(page_bytes=16 * 1024, block_bytes=1024)
        controller = make(config)
        touch(controller, 0, times=3)
        touch(controller, 5 * 16 * 1024 + 2048, times=3)
        controller.check_invariants()

    def test_block_equals_page(self):
        config = BumblebeeConfig(page_bytes=64 * 1024,
                                 block_bytes=64 * 1024)
        controller = make(config)
        touch(controller, 0, times=2)
        controller.check_invariants()

    def test_uneven_capacity_rejected(self):
        from repro.core import derive_geometry
        # 70 DRAM pages cannot tile across the 8 sets of a 4MiB stack.
        with pytest.raises(ValueError):
            derive_geometry(BumblebeeConfig(), 4 * MIB, 70 * 64 * 1024)


class TestWriteHandling:
    def test_write_to_chbm_block_sets_dirty(self):
        controller = make(BumblebeeConfig(
            allocation=AllocationPolicy.DRAM))
        touch(controller, 0)                       # fill block 0
        touch(controller, 64, is_write=True, start=100.0)  # write hit
        entry = controller.ble[0][0]
        assert entry.mode is WayMode.CHBM
        assert entry.dirty_count() == 1

    def test_dirty_blocks_written_back_on_eviction(self):
        controller = make(BumblebeeConfig(
            allocation=AllocationPolicy.DRAM))
        touch(controller, 0, is_write=True)
        before = controller.stats.get("writeback_bytes")
        controller._evict_chbm_way(0, 0, 1000.0)
        assert controller.stats.get("writeback_bytes") - before == 2048

    def test_clean_eviction_writes_nothing(self):
        controller = make(BumblebeeConfig(
            allocation=AllocationPolicy.DRAM))
        touch(controller, 0, is_write=False)
        before = controller.stats.get("writeback_bytes")
        controller._evict_chbm_way(0, 0, 1000.0)
        assert controller.stats.get("writeback_bytes") == before
