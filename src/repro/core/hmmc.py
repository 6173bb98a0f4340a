"""The Hybrid Memory Management Controller — Bumblebee proper.

Implements the Figure 5 memory access path over the unified set-associative
PRT/BLE metadata, the §III-D hotness-based page allocation, and every
§III-E data-movement rule:

* access-triggered movement — SL- and T-gated page migration into mHBM or
  block caching into cHBM, and the cHBM->mHBM switch when most blocks of a
  cached page arrive;
* high-memory-footprint movement — LRU-driven eviction, the mHBM->cHBM
  buffering mechanism (free thanks to the multiplexed space), zombie-page
  eviction, the fully-occupied-set swap, and the global batch flush that
  returns cHBM capacity to the OS when the footprint exceeds off-chip DRAM.

The Figure 7 ablations (No-Multi, Meta-H, Alloc-D/H, No-HMF, and the static
C-Only / M-Only / 25%-C / 50%-C partitions) are all configuration flags on
this one controller; see :class:`~repro.core.config.BumblebeeConfig`.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import numpy as np

from ..baselines.base import HybridMemoryController
from ..designs import register_design, register_spec
from ..mem.timing import DeviceConfig
from ..sim.request import AccessResult, MemoryRequest
from .ble import BLEArray, WayMode, epoch_snapshot
from .config import (AllocationPolicy, BumblebeeConfig, check_fraction,
                     derive_geometry)
from .hotness import HotnessTracker
from .metadata import MetadataSizes, metadata_sizes
from .policy import (
    MovementAction,
    SetCondition,
    decide_dram_access,
    should_swap,
    should_switch_to_mhbm,
    spatial_locality,
)
from .prt import UNALLOCATED, PageRemappingTable


class BumblebeeController(HybridMemoryController):
    """Bumblebee's HMMC sitting between the LLC and the two memories."""

    def __init__(self, hbm_config: DeviceConfig, dram_config: DeviceConfig,
                 config: BumblebeeConfig | None = None,
                 name: str = "Bumblebee") -> None:
        super().__init__(hbm_config, dram_config, name=name)
        self.config = config or BumblebeeConfig()
        self.geometry = derive_geometry(
            self.config,
            hbm_bytes=hbm_config.geometry.capacity_bytes,
            dram_bytes=dram_config.geometry.capacity_bytes,
        )
        g = self.geometry
        c = self.config
        self.prt = PageRemappingTable(g)
        self.ble = [BLEArray(g.hbm_ways, c.blocks_per_page)
                    for _ in range(g.sets)]
        self.hot = [HotnessTracker(g.hbm_ways, c.hot_queue_dram_entries,
                                   c.counter_max)
                    for _ in range(g.sets)]
        self._recent_allocs: list[deque[int]] = [
            deque(maxlen=2) for _ in range(g.sets)]
        self._decision_ticks = [0] * g.sets
        # Per-set count of changes to what an epoch classification reads
        # (PRT slots, way owners and modes, cHBM block bits, and with no
        # mHBM ways a flush's disable), bumped at every such change:
        # pass 1 re-checks a request only when its set moved after the
        # request was classified.  A re-enable bumps nothing; the
        # off-chip class ends at it instead (:meth:`batch_epoch_plan`).
        # Nothing bumps the extra last entry, which that class stamps.
        self._set_versions = [0] * (g.sets + 1)
        self._chbm_disabled = [False] * g.sets
        self._hmf_cooldown = 0
        self._hmf_cursor = 0
        self._hmf_streak = 0
        self._hmf_flush_interval = 512
        self._full_block_mask = (1 << c.blocks_per_page) - 1
        self._lines_per_block = c.block_bytes // 64
        self._lines_per_page = c.page_bytes // 64
        self._full_line_mask = (1 << self._lines_per_page) - 1
        self._block_line_mask = (1 << self._lines_per_block) - 1
        self._adaptive = c.fixed_chbm_ways is None
        if self._adaptive:
            self._chbm_ways = range(g.hbm_ways)
            self._mhbm_ways = range(g.hbm_ways)
        else:
            self._chbm_ways = range(c.fixed_chbm_ways)
            self._mhbm_ways = range(c.fixed_chbm_ways, g.hbm_ways)
        # Access-path constants hoisted out of the per-request methods
        # (config and geometry are frozen dataclasses whose property
        # chains would otherwise be re-walked on every LLC miss).
        self._page_bytes = c.page_bytes
        self._block_bytes = c.block_bytes
        self._most_blocks = c.most_blocks_threshold
        self._sets = g.sets
        self._slots_per_set = g.slots_per_set
        self._dram_slots = g.dram_slots
        self._meta_in_hbm = c.metadata_in_hbm
        self._hmf_on = c.hmf_enabled
        self._hbm_ways = g.hbm_ways
        self._threshold_cap = c.counter_max - 1
        self._age_interval = c.age_interval
        self._chbm_any = len(self._chbm_ways) > 0
        self._mhbm_any = len(self._mhbm_ways) > 0
        # Direct references into the per-set metadata containers.  The
        # aliased lists are mutated in place and never rebound, so these
        # stay coherent; they spare the PRT/BLE __getitem__ calls on the
        # demand path.
        self._slot_maps = [rset._slot_of for rset in self.prt]
        self._ble_entries = [array._entries for array in self.ble]

    # ------------------------------------------------------------------
    # Figure 5: the memory access path
    # ------------------------------------------------------------------

    def access(self, request: MemoryRequest, now_ns: float) -> AccessResult:
        metadata_ns = (self._metadata_access_ns(now_ns)
                       if self._meta_in_hbm else 0.0)
        addr = request.addr
        if self._hmf_on:
            self._global_footprint_check(addr, now_ns)
        # Inlined geometry.locate(addr) — same arithmetic, no calls.
        page_bytes = self._page_bytes
        sets = self._sets
        page = addr // page_bytes
        set_index = page % sets
        orig = (page // sets) % self._slots_per_set
        slot = self._slot_maps[set_index][orig]
        if slot == UNALLOCATED:                              # (1) PRT miss
            slot = self._allocate_page(set_index, orig, now_ns)
        offset = addr % page_bytes
        block = offset // self._block_bytes

        if slot >= self._dram_slots:                         # (3) in mHBM
            return self._access_mhbm(set_index, orig, slot, block, offset,
                                     request, now_ns, metadata_ns)
        return self._access_dram_home(set_index, orig, slot, block, offset,
                                      request, now_ns, metadata_ns)

    def _access_mhbm(self, set_index: int, orig: int, slot: int, block: int,
                     offset: int, request: MemoryRequest, now_ns: float,
                     metadata_ns: float) -> AccessResult:
        way = slot - self._dram_slots
        entry = self._ble_entries[set_index][way]
        # Inlined mark_valid / mark_used_line (same bit ops, no calls).
        entry.valid |= 1 << block
        entry.used |= 1 << (offset >> 6)
        self.hot[set_index].record_hbm_access(orig)
        # Inlined geometry.hbm_page_addr(set_index, slot) — slot is an
        # HBM slot by the branch above, so the range check is redundant.
        hbm_addr = (way * self._sets + set_index) * self._page_bytes \
            + offset
        # §III-E (3): accessing an mHBM page incurs no data movement.
        return self._demand_hbm(hbm_addr, request, now_ns, metadata_ns)

    def _access_dram_home(self, set_index: int, orig: int, slot: int,
                          block: int, offset: int, request: MemoryRequest,
                          now_ns: float, metadata_ns: float) -> AccessResult:
        ble = self.ble[set_index]
        tracker = self.hot[set_index]
        # Inlined geometry.dram_page_addr — slot is a DRAM slot here.
        dram_addr = (slot * self._sets + set_index) * self._page_bytes \
            + offset
        way = ble.find_owner(orig)
        if way is not None and ble[way].mode is WayMode.CHBM:
            entry = ble[way]
            tracker.record_hbm_access(orig)
            if entry.valid >> block & 1:                     # (7) block hit
                entry.used |= 1 << (offset >> 6)
                if request.is_write:
                    entry.dirty |= 1 << block
                hbm_addr = (way * self._sets + set_index) \
                    * self._page_bytes + offset
                result = self._demand_hbm(hbm_addr, request, now_ns,
                                          metadata_ns)
                # Re-heated buffer pages (all blocks valid after an
                # mHBM->cHBM buffering) switch back to mHBM here with
                # zero data movement — the deferred-eviction payoff.
                self._maybe_switch_to_mhbm(set_index, way, orig, now_ns)
                return result
            # (8) page cached, block not: serve from DRAM, fetch the block.
            result = self._demand_dram(dram_addr, request, now_ns,
                                        metadata_ns)
            self._fill_block(set_index, way, orig, block,
                             request.is_write, now_ns,
                             used_line=offset // 64)
            self._maybe_switch_to_mhbm(set_index, way, orig, now_ns)
            return result
        # (5) page not cached: off-chip service plus a movement decision.
        tracker.record_dram_access(orig)
        result = self._demand_dram(dram_addr, request, now_ns, metadata_ns)
        self._movement_decision(set_index, orig, block, request.is_write,
                                now_ns, used_line=offset // 64)
        return result

    # ------------------------------------------------------------------
    # §III-D: page allocation
    # ------------------------------------------------------------------

    def _allocate_page(self, set_index: int, orig: int,
                       now_ns: float) -> int:
        """Assign a never-touched page to a free slot (PRT miss path)."""
        rset = self.prt[set_index]
        tracker = self.hot[set_index]
        policy = self.config.allocation
        if policy is AllocationPolicy.HOTNESS:
            recent = self._recent_allocs[set_index]
            want_hbm = any(p in tracker.hbm_queue for p in recent)
        elif policy is AllocationPolicy.HBM:
            want_hbm = True
        else:
            want_hbm = False
        slot = None
        if want_hbm and self._mhbm_ways:
            slot = self._free_hbm_slot_for_alloc(set_index, now_ns)
        if slot is None:
            slot = rset.first_free_slot(0, self.geometry.dram_slots)
        if slot is None:
            slot = self._free_hbm_slot_for_alloc(set_index, now_ns)
        if slot is None:
            raise RuntimeError(
                f"set {set_index} has no free slot for page {orig}; "
                "the OS address space cannot exceed the slot count")
        rset.allocate(orig, slot)
        self._set_versions[set_index] += 1
        self._recent_allocs[set_index].append(orig)
        self.stats.bump("alloc_hbm" if self.geometry.is_hbm_slot(slot)
                        else "alloc_dram")
        if self.geometry.is_hbm_slot(slot):
            way = slot - self.geometry.dram_slots
            entry = self.ble[set_index][way]
            entry.owner = orig
            entry.mode = WayMode.MHBM
            tracker.promote(orig)
        return slot

    def _free_hbm_slot_for_alloc(self, set_index: int,
                                 now_ns: float) -> int | None:
        """A free HBM slot usable for allocation, flushing idle cHBM ways.

        Only ways in the mHBM-capable region qualify; a way holding cHBM
        data is flushed (its cache dropped) to make the slot allocatable —
        OS capacity takes priority over cache contents (§III-A).
        """
        rset = self.prt[set_index]
        ble = self.ble[set_index]
        base = self.geometry.dram_slots
        for way in self._mhbm_ways:
            if rset.is_occupied(base + way):
                continue
            if ble[way].mode is WayMode.FREE:
                return base + way
        for way in self._mhbm_ways:
            if rset.is_occupied(base + way):
                continue
            if ble[way].mode is WayMode.CHBM:
                self._evict_chbm_way(set_index, way, now_ns)
                return base + way
        return None

    # ------------------------------------------------------------------
    # §III-E: data movement triggered by memory access
    # ------------------------------------------------------------------

    def _movement_decision(self, set_index: int, orig: int, block: int,
                           is_write: bool, now_ns: float,
                           used_line: int = 0) -> None:
        tracker = self.hot[set_index]
        na, nn, nc, free = self.ble[set_index].way_counts(self._most_blocks)
        # tracker.hotness(orig) and tracker.threshold(), read straight
        # from the two queues: this runs on most off-chip accesses.
        hbm_counters = tracker.hbm_queue._entries
        hotness = max(hbm_counters.get(orig, 0),
                      tracker.dram_queue._entries.get(orig, 0))
        threshold = min(hbm_counters.values()) if hbm_counters else 0
        condition = SetCondition(
            sl=spatial_locality(na, nn, nc),
            rh=(self._hbm_ways - free) / self._hbm_ways,
            hotness=hotness,
            # Saturating-counter reading of "hotness larger than T": a
            # saturated candidate must be able to pass a saturated
            # threshold, or the set freezes once resident counters cap.
            threshold=min(threshold, self._threshold_cap),
        )
        ticks = self._decision_ticks[set_index] + 1
        self._decision_ticks[set_index] = ticks
        if self._age_interval and ticks % self._age_interval == 0:
            tracker.age()
        disabled = self._chbm_disabled[set_index]
        action = decide_dram_access(
            condition, chbm_allowed=self._chbm_any and not disabled,
            mhbm_allowed=self._mhbm_any,
            # Static partitions have a single mechanism; and a set whose
            # cHBM the high-footprint state disabled behaves as pure POM.
            allow_fallback=not self._adaptive or disabled)
        if action is MovementAction.MIGRATE:
            self._migrate_page(set_index, orig, block, now_ns,
                               used_line=used_line)
        elif action is MovementAction.CACHE_BLOCK:
            self._cache_into_chbm(set_index, orig, block, is_write, now_ns,
                                  used_line=used_line)
        if self._hmf_on and condition.rh_high:
            zombie = tracker.observe_zombie(self.config.zombie_patience)
            if zombie is not None and zombie != orig:
                self._evict_zombie(set_index, zombie, now_ns)

    def _migrate_page(self, set_index: int, orig: int, block: int,
                      now_ns: float, used_line: int = 0) -> None:
        """Whole-page migration from off-chip DRAM into mHBM."""
        way = self._acquire_way(set_index, self._mhbm_ways, now_ns,
                                self.hot[set_index].hotness(orig))
        if way is None:
            self._try_full_set_swap(set_index, orig, now_ns)
            return
        rset = self.prt[set_index]
        g = self.geometry
        dram_slot = rset.slot_of(orig)
        hbm_slot = g.dram_slots + way
        self.mover.fetch_to_hbm(
            g.dram_page_addr(set_index, dram_slot),
            g.hbm_page_addr(set_index, hbm_slot),
            self.config.page_bytes, now_ns)
        rset.move(orig, hbm_slot)
        self._set_versions[set_index] += 1
        entry = self.ble[set_index][way]
        entry.reset()
        entry.owner = orig
        entry.mode = WayMode.MHBM
        entry.mark_valid(block)
        entry.mark_brought_lines(self._full_line_mask)
        entry.mark_used_line(used_line)
        self._adopt_into_hbm_queue(set_index, orig, now_ns)
        self.stats.bump("migrations")

    def _cache_into_chbm(self, set_index: int, orig: int, block: int,
                         is_write: bool, now_ns: float,
                         used_line: int = 0) -> None:
        """Start caching a page: fetch only the requested block (§III-E 1)."""
        way = self._acquire_way(set_index, self._chbm_ways, now_ns,
                                self.hot[set_index].hotness(orig))
        if way is None:
            return
        entry = self.ble[set_index][way]
        entry.reset()
        entry.owner = orig
        entry.mode = WayMode.CHBM
        self._fill_block(set_index, way, orig, block, is_write, now_ns,
                         used_line=used_line)
        self._adopt_into_hbm_queue(set_index, orig, now_ns)
        self.stats.bump("chbm_insertions")

    def _fill_block(self, set_index: int, way: int, orig: int, block: int,
                    is_write: bool, now_ns: float,
                    used_line: int | None = None) -> None:
        """Fetch one block of a cHBM-cached page from its DRAM home."""
        g = self.geometry
        entry = self.ble[set_index][way]
        dram_slot = self.prt[set_index].slot_of(orig)
        block_off = block * self.config.block_bytes
        self.mover.fetch_to_hbm(
            g.dram_page_addr(set_index, dram_slot) + block_off,
            g.hbm_page_addr(set_index, g.dram_slots + way) + block_off,
            self.config.block_bytes, now_ns)
        entry.mark_valid(block)
        self._set_versions[set_index] += 1
        entry.mark_brought_lines(
            self._block_line_mask << (block * self._lines_per_block))
        if used_line is not None:
            entry.mark_used_line(used_line)
        if is_write:
            entry.mark_dirty(block)
        self.stats.bump("block_fills")
        if self.config.prefetch_blocks:
            self._prefetch_blocks(set_index, way, orig, block, now_ns)

    def _prefetch_blocks(self, set_index: int, way: int, orig: int,
                         block: int, now_ns: float) -> None:
        """Extension: pull the next sequential blocks alongside a fill."""
        g = self.geometry
        entry = self.ble[set_index][way]
        dram_slot = self.prt[set_index].slot_of(orig)
        for offset in range(1, self.config.prefetch_blocks + 1):
            next_block = block + offset
            if next_block >= self.config.blocks_per_page:
                break
            if entry.block_valid(next_block):
                continue
            block_off = next_block * self.config.block_bytes
            self.mover.fetch_to_hbm(
                g.dram_page_addr(set_index, dram_slot) + block_off,
                g.hbm_page_addr(set_index, g.dram_slots + way) + block_off,
                self.config.block_bytes, now_ns)
            entry.mark_valid(next_block)
            entry.mark_brought_lines(
                self._block_line_mask
                << (next_block * self._lines_per_block))
            self.stats.bump("prefetched_blocks")

    def _maybe_switch_to_mhbm(self, set_index: int, way: int, orig: int,
                              now_ns: float) -> None:
        """§III-E (2): a mostly-cached cHBM page becomes an mHBM page."""
        entry = self.ble[set_index][way]
        if not should_switch_to_mhbm(entry.valid_count(),
                                     self._most_blocks,
                                     adaptive=self._adaptive):
            return
        g = self.geometry
        rset = self.prt[set_index]
        missing = entry.missing_blocks(self.config.blocks_per_page)
        move_bytes = missing * self.config.block_bytes
        hbm_slot = g.dram_slots + way
        dram_slot = rset.slot_of(orig)
        if self.config.multiplexed:
            # Only the blocks not yet cached move (the multiplexed-space
            # advantage); the page's official home flips to the HBM slot.
            self.mover.fetch_to_hbm(
                g.dram_page_addr(set_index, dram_slot),
                g.hbm_page_addr(set_index, hbm_slot),
                move_bytes, now_ns, mode_switch=True)
        else:
            # No-Multi: separate spaces force the full page to be staged
            # across, costing a whole-page transfer regardless of how much
            # is already cached.
            self.mover.fetch_to_hbm(
                g.dram_page_addr(set_index, dram_slot),
                g.hbm_page_addr(set_index, hbm_slot),
                self.config.page_bytes, now_ns, mode_switch=True)
        missing_line_mask = 0
        for b in range(self.config.blocks_per_page):
            if not entry.block_valid(b):
                missing_line_mask |= (self._block_line_mask
                                      << (b * self._lines_per_block))
        entry.mark_brought_lines(missing_line_mask)
        rset.move(orig, hbm_slot)
        self._set_versions[set_index] += 1
        entry.mode = WayMode.MHBM
        # entry.valid keeps the accessed-block history, which now feeds the
        # Na/Nn spatial estimate for this mHBM page.
        entry.dirty = 0
        self.stats.bump("switch_c2m")

    # ------------------------------------------------------------------
    # §III-E: data movement triggered by high memory footprint
    # ------------------------------------------------------------------

    def _acquire_way(self, set_index: int, allowed: range, now_ns: float,
                     incoming_hotness: int = 0) -> int | None:
        """Find (or make) a free way in ``allowed``.

        Free ways are used directly.  Otherwise the coldest page whose
        counter does not exceed ``incoming_hotness`` is victimised
        (generalising the §III-E swap rule: incoming data never displaces
        hotter data): cHBM victims are evicted cheaply (dirty blocks
        only); when every eligible victim is mHBM the coldest one is
        *buffered* into cHBM mode (no data moves — multiplexed space) and
        this round yields no way, matching the paper's deferred-eviction
        behaviour.  With HMF movement disabled (No-HMF), or in a set
        whose cHBM the high-footprint state disabled (buffering would
        strand un-evictable cHBM pages), the victim is evicted outright.
        """
        ble = self.ble[set_index]
        way = ble.find_free(allowed)
        if way is not None:
            return way
        tracker = self.hot[set_index]
        # Coldest-counter first (LRU position as tiebreak), restricted to
        # pages no hotter than the incoming one.
        counter = tracker.hbm_queue.counter
        candidates = sorted(
            (p for p in tracker.hbm_queue.pages()
             if counter(p) <= max(1, incoming_hotness)),
            key=counter)
        for page in candidates:
            victim_way = ble.find_owner(page)
            if victim_way is None or victim_way not in allowed:
                continue
            if ble[victim_way].mode is WayMode.CHBM:
                self._evict_chbm_way(set_index, victim_way, now_ns)
                return victim_way
        if (self.config.hmf_enabled and self._adaptive
                and not self._chbm_disabled[set_index]):
            # The buffering mechanism needs the multiplexed cHBM mode:
            # only adaptive Bumblebee can park an eviction-bound mHBM
            # page as cHBM in place.  Static partitions (and No-HMF)
            # fall through to direct eviction below.
            for page in candidates:
                victim_way = ble.find_owner(page)
                if victim_way is None or victim_way not in allowed:
                    continue
                if ble[victim_way].mode is WayMode.MHBM:
                    self._buffer_mhbm_way(set_index, victim_way, now_ns)
                    break
            return None
        for page in candidates:
            victim_way = ble.find_owner(page)
            if victim_way is not None and victim_way in allowed:
                self._evict_mhbm_way(set_index, victim_way, now_ns)
                if ble[victim_way].mode is WayMode.FREE:
                    return victim_way
        return None

    def _evict_chbm_way(self, set_index: int, way: int,
                        now_ns: float) -> None:
        """Drop a cHBM page: write dirty blocks back to its DRAM home."""
        g = self.geometry
        entry = self.ble[set_index][way]
        owner = entry.owner
        dram_slot = self.prt[set_index].slot_of(owner)
        dirty_bytes = entry.dirty_count() * self.config.block_bytes
        self.mover.writeback_to_dram(
            g.hbm_page_addr(set_index, g.dram_slots + way),
            g.dram_page_addr(set_index, dram_slot),
            dirty_bytes, now_ns)
        self._retire_way(set_index, way)
        self.hot[set_index].demote(owner)
        self.stats.bump("chbm_evictions")

    def _evict_mhbm_way(self, set_index: int, way: int,
                        now_ns: float) -> None:
        """Fully evict an mHBM page to a free DRAM slot (whole page moves)."""
        g = self.geometry
        rset = self.prt[set_index]
        entry = self.ble[set_index][way]
        owner = entry.owner
        dram_slot = rset.first_free_slot(0, g.dram_slots)
        if dram_slot is None:
            return
        self.mover.writeback_to_dram(
            g.hbm_page_addr(set_index, g.dram_slots + way),
            g.dram_page_addr(set_index, dram_slot),
            self.config.page_bytes, now_ns)
        rset.move(owner, dram_slot)
        self._retire_way(set_index, way)
        self.hot[set_index].demote(owner)
        self.stats.bump("mhbm_evictions")

    def _buffer_mhbm_way(self, set_index: int, way: int,
                         now_ns: float) -> None:
        """§III-E HMF (2): switch an eviction-bound mHBM page to cHBM mode.

        With multiplexed spaces this moves *no data*: the page's official
        home becomes a reserved free DRAM slot, every block is marked valid
        and dirty, and the data keeps being served from the same HBM page.
        If the page re-heats, switching back is again metadata-only.
        """
        g = self.geometry
        rset = self.prt[set_index]
        entry = self.ble[set_index][way]
        owner = entry.owner
        dram_slot = rset.first_free_slot(0, g.dram_slots)
        if dram_slot is None:
            return
        if not self.config.multiplexed:
            # Separate spaces: the switch physically stages the page out.
            self.mover.writeback_to_dram(
                g.hbm_page_addr(set_index, g.dram_slots + way),
                g.dram_page_addr(set_index, dram_slot),
                self.config.page_bytes, now_ns, mode_switch=True)
            dirty_mask = 0
        else:
            dirty_mask = self._full_block_mask
        rset.move(owner, dram_slot)
        entry.mode = WayMode.CHBM
        entry.valid = self._full_block_mask
        entry.dirty = dirty_mask
        self._set_versions[set_index] += 1
        self.stats.bump("switch_m2c")

    def _evict_zombie(self, set_index: int, page: int,
                      now_ns: float) -> None:
        """§III-E HMF (3): evict a page nothing else can push out."""
        ble = self.ble[set_index]
        way = ble.find_owner(page)
        if way is None:
            self.hot[set_index].demote(page)
            return
        if ble[way].mode is WayMode.CHBM:
            self._evict_chbm_way(set_index, way, now_ns)
        else:
            self._evict_mhbm_way(set_index, way, now_ns)
        self.stats.bump("zombie_evictions")

    def _try_full_set_swap(self, set_index: int, orig: int,
                           now_ns: float) -> None:
        """§III-E HMF (4): all slots OS-occupied — swap hot for coldest."""
        if not self.config.hmf_enabled:
            return
        rset = self.prt[set_index]
        g = self.geometry
        if rset.first_free_slot(0, g.slots_per_set) is not None:
            return
        tracker = self.hot[set_index]
        head = tracker.hbm_queue.lru_head()
        if head is None:
            return
        victim, coldest = head
        if not should_swap(tracker.hotness(orig), coldest):
            return
        victim_way = self.ble[set_index].find_owner(victim)
        if victim_way is None or self.ble[set_index][victim_way].mode \
                is not WayMode.MHBM:
            return
        dram_slot = rset.slot_of(orig)
        hbm_slot = g.dram_slots + victim_way
        self.mover.swap(g.hbm_page_addr(set_index, hbm_slot),
                        g.dram_page_addr(set_index, dram_slot),
                        self.config.page_bytes, now_ns)
        rset.swap(orig, victim)
        self._set_versions[set_index] += 1
        entry = self.ble[set_index][victim_way]
        self._account_overfetch(entry)
        entry.reset()
        entry.owner = orig
        entry.mode = WayMode.MHBM
        entry.mark_brought_lines(self._full_line_mask)
        tracker.demote(victim)
        self._adopt_into_hbm_queue(set_index, orig, now_ns)

    def _global_footprint_check(self, addr: int, now_ns: float) -> None:
        """§III-E HMF (5): batch-flush cHBM when the footprint tops DRAM."""
        if addr >= self._dram_capacity:
            # While the footprint stays above off-chip capacity, keep
            # returning cHBM capacity to the OS, one batch of sets at a
            # time (the paper's batching mechanism).
            if self._hmf_streak % self._hmf_flush_interval == 0:
                self._flush_chbm_batch(now_ns)
            self._hmf_streak += 1
            self._hmf_cooldown = self.config.hmf_cooldown_requests
        elif self._hmf_cooldown > 0:
            self._hmf_cooldown -= 1
            if self._hmf_cooldown == 0:
                self._chbm_disabled = [False] * self.geometry.sets
                self._hmf_streak = 0
                self.stats.bump("hmf_reenables")

    def _flush_chbm_batch(self, now_ns: float) -> None:
        """Flush cHBM pages across a batch of sets and disable cHBM there."""
        g = self.geometry
        for _ in range(min(self.config.hmf_batch_sets, g.sets)):
            set_index = self._hmf_cursor
            self._hmf_cursor = (self._hmf_cursor + 1) % g.sets
            for way in range(g.hbm_ways):
                if self.ble[set_index][way].mode is WayMode.CHBM:
                    self._evict_chbm_way(set_index, way, now_ns)
            self._chbm_disabled[set_index] = True
            if not self._mhbm_any:
                # Only the off-chip class reads the disabled bit.
                self._set_versions[set_index] += 1
        self.stats.bump("hmf_flushes")

    # ------------------------------------------------------------------
    # two-pass epoch replay protocol (repro.sim.vectorized.replay_epoch)
    # ------------------------------------------------------------------

    #: Advisory epoch size for the two-pass engine when no explicit
    #: ``vector_epoch`` is set.  A page allocated or filled after an
    #: epoch's numpy classification makes every later request it serves
    #: in that epoch re-checked once; a fresher classification saves
    #: that work until the per-epoch planning cost takes over.  Process
    #: CPU time of the cells (median of 5 interleaved runs, seed 1234,
    #: 2 vCPUs) at 2048 / 4096 / 8192 / 16384 / 65536: C-Only, M-Only,
    #: Alloc-D and Alloc-H on lbm and roms (20k + 10k) 0.69 / 0.63 /
    #: 0.62 / 0.72 / 0.63 s; Bumblebee on mcf, leela and xalancbmk
    #: (30k + 15k) 0.25 / 0.30 / 0.22 / 0.23 / 0.27 s.  The runs of one
    #: size spread by 0.2 s and 0.1 s, more than the curves move, so
    #: the size stays.
    preferred_epoch_requests = 2048

    def batch_epoch_plan(self, addr, is_write):
        """Pass 1: decide one epoch in scalar order against live state.

        Pure requests are exactly the accesses whose scalar path touches
        no state a classification reads: resident mHBM hits, cHBM block
        hits that cannot trigger the cHBM->mHBM switch, and, in a design
        with no mHBM ways, the *off-chip class*: an allocated DRAM-home
        page in a set whose cHBM the high-memory-footprint state
        disabled (its flush emptied every way, and none can fill), so
        that nothing may move and :meth:`access` only counts the access
        (see :meth:`_commit_offchip_run`).  They are classified with numpy
        from the state at the epoch's start, and their feedback lands
        one run at a time.  Every other request — PRT misses, the other
        DRAM-home accesses (movement decisions), cHBM block fills, and
        the two requests at which the high-memory-footprint state acts
        on the sets, a batch flush and the re-enable that ends a
        cooldown (:meth:`_hmf_trajectory`) — runs through :meth:`access`
        at its place in the order, with the devices bound to a
        :class:`~repro.sim.vectorized.ScriptRecorder`: its demand fills
        the request's plan entry and its movement becomes op-table rows.

        Such a request changes the tables the classification read, and
        every change bumps its set's ``_set_versions`` counter: a request
        whose set moved since it was classified is re-checked against
        the live tables (:meth:`_reclassify`) when its turn comes.  A
        re-enable clears every set's disabled bit without a bump, so the
        off-chip class ends at the epoch's first one.
        """
        from ..sim.vectorized import EpochPlan
        m = addr.shape[0]
        meta_const = (self._metadata_epoch_const()
                      if self._meta_in_hbm else 0.0)
        page = addr // self._page_bytes
        set_index = page % self._sets
        orig = (page // self._sets) % self._slots_per_set
        offset = addr - page * self._page_bytes
        block = offset // self._block_bytes
        slot = np.array(self._slot_maps, dtype=np.int64)[set_index, orig]
        ok = slot != UNALLOCATED
        hmf = self._hmf_trajectory(addr) if self._hmf_on else None
        if hmf is not None:
            ok &= ~hmf[0]
        mhbm = ok & (slot >= self._dram_slots)
        chbm = np.zeros(m, dtype=bool)
        way = np.zeros(m, dtype=np.int64)
        cand = ok & ~mhbm
        pure = mhbm
        stamp_key = None
        # No cHBM hit exists without cHBM ways (M-Only).
        if (self._chbm_any and self.config.blocks_per_page <= 64
                and bool(cand.any())):
            owner, live, cached, valid, counts = epoch_snapshot(
                self._ble_entries, with_counts=self._adaptive)
            cs = set_index[cand]
            match = (owner[cs] == orig[cand][:, None]) & live[cs]
            found = match.any(axis=1)
            w = match.argmax(axis=1)
            bit = ((valid[cs, w] >> block[cand].astype(np.uint64))
                   & np.uint64(1)).astype(bool)
            hit = found & cached[cs, w] & bit
            if self._adaptive:
                # A block hit that would flip the way to mHBM
                # (_maybe_switch_to_mhbm) is feedback, not a pure read.
                hit &= counts[cs, w] < self._most_blocks
            chbm[cand] = hit
            way[cand] = w
            if not self._mhbm_any and any(self._chbm_disabled):
                # Both hit classes need a live way holding the page, and
                # a DRAM-home access without one may move data.  In a
                # disabled set (no live way, see check_invariants) it
                # cannot; its "way" is its DRAM slot.
                offchip = cand & np.array(self._chbm_disabled)[set_index]
                if hmf is not None:
                    reenable = np.flatnonzero(
                        hmf[0] & (addr < self._dram_capacity))
                    if reenable.shape[0]:
                        offchip[reenable[0]:] = False
                pure = pure | offchip
                way = np.where(offchip, slot, way)
                # Until the re-enable nothing can give such a set a
                # live way or move its DRAM-home pages (allocations of
                # other pages still bump it): no re-check.
                stamp_key = np.where(offchip, self._sets, set_index)
        pure = pure | chbm
        way = np.where(mhbm, slot - self._dram_slots, way)
        plan = EpochPlan(use_hbm=None, local_addr=None,
                         meta_const=meta_const)
        # Per-request scalar reads are much cheaper on lists than on
        # numpy arrays.
        plan.cols = tuple(col.tolist() for col in (
            set_index, way, orig, block, offset >> 6, chbm,
            np.asarray(is_write)))
        plan.hmf = hmf
        plan.hmf_events = None if hmf is None else hmf[0].tolist()
        commit = (self._commit_run if self._mhbm_any
                  else self._commit_offchip_run)
        impure = np.flatnonzero(~pure)
        recorder = None
        if not impure.shape[0]:
            commit(plan, range(m))
        else:
            recorder = self._run_impure(plan, commit, pure.tolist(),
                                        int(impure[0]), addr.tolist(),
                                        plan.cols[0] if stamp_key is None
                                        else stamp_key.tolist())
        # Every request that stayed pure reads at its final way (an
        # off-chip one at its DRAM slot), inside the serving device.
        plan.local_addr = (np.array(plan.cols[1], dtype=np.int64)
                           * self._sets + set_index) * self._page_bytes \
            + offset
        plan.use_hbm = (np.ones(m, dtype=bool) if self._mhbm_any
                        else np.array(plan.cols[5], dtype=bool))
        if recorder is not None:
            recorder.fill(plan)
        return plan

    def _run_impure(self, plan, commit, pure_l: list, first: int,
                    addr_l: list, key_l: list):
        """Pass 1's scalar walk from the first impure request on.

        Commits each pure run with ``commit``, runs each impure request
        through :meth:`access` with the devices recorded, and re-checks
        a request whose ``_set_versions`` entry (``key_l``: its set's)
        an earlier request bumped.

        Returns:
            The :class:`~repro.sim.vectorized.ScriptRecorder` holding the
            demand and movement of every request that ran through
            :meth:`access`.
        """
        from ..sim.vectorized import ScriptRecorder
        wr_l = plan.cols[6]
        versions = self._set_versions
        stamp_l = [versions[k] for k in key_l]
        reclassify = self._reclassify
        run_start = 0
        with ScriptRecorder(self) as recorder:
            run = recorder.run
            for i in range(first, len(pure_l)):
                version = versions[key_l[i]]
                if version != stamp_l[i]:
                    stamp_l[i] = version
                    pure_l[i] = reclassify(plan, i)
                if pure_l[i]:
                    continue
                if run_start < i:
                    commit(plan, range(run_start, i))
                run_start = i + 1
                run(i, addr_l[i], wr_l[i])
        if run_start < len(pure_l):
            commit(plan, range(run_start, len(pure_l)))
        return recorder

    def _hmf_trajectory(self, addr):
        """:meth:`_global_footprint_check` replayed over one epoch.

        A beyond-DRAM address restarts the cooldown and advances the
        streak, flushing a batch of sets whenever the streak was a
        multiple of ``_hmf_flush_interval``; any other address counts the
        cooldown down, and the one that reaches 0 re-enables the sets and
        resets the streak.

        Returns:
            None when the epoch leaves the HMF state as it is (no
            beyond-DRAM address, no cooldown running); else
            ``(events, cooldown, streak)`` arrays: whether each request
            flushes or re-enables (both run through :meth:`access`), and
            the counters it leaves behind.
        """
        high = addr >= self._dram_capacity
        start = self._hmf_cooldown
        if not start and not high.any():
            return None
        idx = np.arange(high.shape[0])
        last_high = np.maximum.accumulate(np.where(high, idx, -1))
        cooldown = np.where(
            last_high >= 0,
            np.maximum(self.config.hmf_cooldown_requests
                       - (idx - last_high), 0),
            np.maximum(start - (idx + 1), 0))
        before = np.concatenate(([start], cooldown[:-1]))
        reenable = ~high & (before == 1)
        highs = np.cumsum(high)
        last_reenable = np.maximum.accumulate(np.where(reenable, idx, -1))
        streak = highs - np.where(last_reenable >= 0, highs[last_reenable],
                                  -self._hmf_streak)
        flush = high & ((streak - 1) % self._hmf_flush_interval == 0)
        return flush | reenable, cooldown, streak

    def _reclassify(self, plan, i: int) -> bool:
        """Whether request ``i`` is pure against the live PRT/BLE state.

        Pass 1's rule, read from the live tables, which uncommitted pure
        feedback never changes; the way (an off-chip request's DRAM
        slot) and mode of a request that is pure land in the plan's
        commit columns.
        """
        if plan.hmf_events is not None and plan.hmf_events[i]:
            return False
        s_l, w_l, o_l, b_l, _, c_l, _ = plan.cols
        s = s_l[i]
        o = o_l[i]
        slot = self._slot_maps[s][o]
        if slot >= self._dram_slots:
            way = slot - self._dram_slots
            cached = False
        elif slot == UNALLOCATED:
            return False
        else:
            for way, entry in enumerate(self._ble_entries[s]):
                if entry.owner == o and entry.mode is not WayMode.FREE:
                    break
            else:
                # The off-chip class, read live: the disabled bit is
                # exact at the request's turn, past a re-enable too.
                if self._mhbm_any or not self._chbm_disabled[s]:
                    return False
                w_l[i] = slot
                c_l[i] = False
                return True
            valid = entry.valid
            # Static partitions never switch a cached page to mHBM.
            if (entry.mode is not WayMode.CHBM or not valid >> b_l[i] & 1
                    or (self._adaptive
                        and valid.bit_count() >= self._most_blocks)):
                return False
            cached = True
        w_l[i] = way
        c_l[i] = cached
        return True

    def _commit_run(self, plan, indices) -> None:
        """Land the feedback of a run of pure requests.

        Exactly the scalar per-request feedback ops in the scalar order:
        mHBM hits OR the valid/used bits then touch the hotness counter;
        cHBM block hits touch the counter first, then used (and dirty on
        writes) — so counter saturation and LRU recency land
        bit-identically.  ``indices`` is an ascending run with no impure
        request inside, so the HMF counters land at its last request's
        values.
        """
        entries = self._ble_entries
        hot = self.hot
        # Entry bit-ops and hotness records land per request — the hot
        # tables and the BLE entries are disjoint structures, so any
        # interleaving that preserves the per-structure order is the
        # scalar order.  Line bits past 63 (a 64KB page has 1024 lines)
        # OR exactly as Python ints.
        s_l, w_l, o_l, b_l, u_l, c_l, wr_l = plan.cols
        for i in indices:
            s = s_l[i]
            entry = entries[s][w_l[i]]
            if c_l[i]:
                entry.used |= 1 << u_l[i]
                if wr_l[i]:
                    entry.dirty |= 1 << b_l[i]
            else:
                entry.valid |= 1 << b_l[i]
                entry.used |= 1 << u_l[i]
            hot[s].record_hbm_access(o_l[i])
        self._commit_counters(plan, indices)

    def _commit_offchip_run(self, plan, indices) -> None:
        """:meth:`_commit_run` for a design with no mHBM ways, where a
        pure request is a cHBM block hit or in the off-chip class.

        An off-chip request's :meth:`access` records the page in the
        set's hot queue, serves it off-chip and ticks the set's movement
        decisions (aging the counters every ``age_interval`` ticks);
        the decision itself is NONE (no cHBM, no mHBM allowed) and an
        empty set's occupancy cannot trip the zombie watchdog.  A
        separate loop, so that designs with mHBM ways pay no per-request
        test for the class.
        """
        entries = self._ble_entries
        hot = self.hot
        ticks = self._decision_ticks
        age_interval = self._age_interval
        s_l, w_l, o_l, b_l, u_l, c_l, wr_l = plan.cols
        for i in indices:
            s = s_l[i]
            if c_l[i]:
                entry = entries[s][w_l[i]]
                entry.used |= 1 << u_l[i]
                if wr_l[i]:
                    entry.dirty |= 1 << b_l[i]
                hot[s].record_hbm_access(o_l[i])
            else:
                hot[s].record_dram_access(o_l[i])
                tick = ticks[s] + 1
                ticks[s] = tick
                if age_interval and tick % age_interval == 0:
                    hot[s].age()
        self._commit_counters(plan, indices)

    def _commit_counters(self, plan, indices) -> None:
        """The HMF counters and metadata count a pure run leaves."""
        n = len(indices)
        if plan.hmf is not None and n:
            _, cooldown, streak = plan.hmf
            self._hmf_cooldown = int(cooldown[indices[-1]])
            self._hmf_streak = int(streak[indices[-1]])
        if self._meta_in_hbm:
            self.stats.bump("metadata_accesses", n)

    def epoch_fallback_reason(self) -> str | None:
        """Veto the two-pass engine when feedback isn't epoch-granular.

        The cHBM purity classification packs per-page block-valid
        bitmaps into ``uint64`` lanes; a configuration with more than
        64 blocks per page cannot be classified that way, so pass 1
        would run every request through :meth:`access` and the epoch
        engine would only add overhead over the scalar loop.
        """
        if self.config.blocks_per_page > 64:
            return "feedback-not-epoch-granular"
        return None

    def _metadata_epoch_const(self) -> float:
        """The constant `_metadata_access_ns` returns, without the bump
        (:meth:`_commit_run` accounts the counter per pure request)."""
        timings = self.hbm.config.timings
        return timings.row_closed_ns + self.hbm.config.burst_ns(64)

    # ------------------------------------------------------------------
    # shared bookkeeping
    # ------------------------------------------------------------------

    def _adopt_into_hbm_queue(self, set_index: int, page: int,
                              now_ns: float) -> None:
        """Promote a page's hot-table entry; evict anything pushed out."""
        popped = self.hot[set_index].promote(page)
        if popped is None:
            return
        victim, counter = popped
        self.hot[set_index].dram_queue.push(victim, counter)
        way = self.ble[set_index].find_owner(victim)
        if way is None:
            return
        if self.ble[set_index][way].mode is WayMode.CHBM:
            self._evict_chbm_way(set_index, way, now_ns)
        else:
            self._evict_mhbm_way(set_index, way, now_ns)

    def _account_overfetch(self, entry) -> None:
        unused = entry.unused_brought_lines()
        if unused:
            self.stats.bump("overfetch_bytes", unused * 64)

    def _retire_way(self, set_index: int, way: int) -> None:
        self._set_versions[set_index] += 1
        entry = self.ble[set_index][way]
        self._account_overfetch(entry)
        entry.reset()

    def finish(self, now_ns: float) -> None:
        """End-of-run hook.

        Over-fetch is accounted at eviction time only (the paper's
        "brought in but unused before eviction" framing): still-resident
        data may yet be used, and charging it would make the metric a
        function of where the measurement window happens to end.
        """

    def reset_measurements(self) -> None:
        """Warm-up boundary: restart over-fetch tracking alongside the
        traffic counters so pre-warm-up fills are not charged against the
        measured window's fetch volume."""
        super().reset_measurements()
        for set_ble in self.ble:
            for entry in set_ble:
                entry.brought = 0
                entry.used = 0

    def os_visible_bytes(self) -> int:
        """Adaptive Bumblebee exposes the whole stack (cHBM yields to the
        OS under footprint pressure); static partitions expose only the
        mHBM region."""
        visible = self.dram.capacity_bytes
        if self._adaptive:
            visible += self.hbm.capacity_bytes
        else:
            visible += (self.hbm.capacity_bytes * len(self._mhbm_ways)
                        // self.geometry.hbm_ways)
        return visible

    def metadata_bytes(self) -> int:
        return self.metadata_model().total_bytes

    def metadata_model(self) -> MetadataSizes:
        """The §IV-B metadata budget of this configuration."""
        return metadata_sizes(self.config, self.geometry)

    def metadata_in_sram(self) -> bool:
        return (not self.config.metadata_in_hbm
                and super().metadata_in_sram())

    # ------------------------------------------------------------------
    # invariants (test support)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Cross-validate PRT, BLE, and hot-table state.

        Beyond the PRT/BLE cross-references, every entry must be legal
        for its mode (the §III-E state machine): free ways carry no
        metadata, cached ways only dirty blocks they hold, mHBM pages
        never accumulate dirty blocks (HBM *is* their home), all masks
        stay within the geometry's block/line widths, no two ways of a
        set claim the same page, and the total occupied HBM pages never
        exceed the stack's capacity.

        Raises:
            AssertionError: on any metadata inconsistency.
        """
        g = self.geometry
        full_blocks = self._full_block_mask
        full_lines = self._full_line_mask
        occupied_pages = 0
        for set_index in range(g.sets):
            rset = self.prt[set_index]
            rset.check_consistent()
            ble = self.ble[set_index]
            owners_seen: set[int] = set()
            for way in range(g.hbm_ways):
                entry = ble[way]
                slot = g.dram_slots + way
                assert entry.valid & ~full_blocks == 0 \
                    and entry.dirty & ~full_blocks == 0, (
                    f"set {set_index} way {way}: block mask wider than "
                    f"{self.config.blocks_per_page} blocks")
                assert entry.brought & ~full_lines == 0 \
                    and entry.used & ~full_lines == 0, (
                    f"set {set_index} way {way}: line mask wider than "
                    f"{self._lines_per_page} lines")
                if entry.mode is WayMode.MHBM:
                    occupied_pages += 1
                    assert rset.occupant(slot) == entry.owner, (
                        f"set {set_index} way {way}: mHBM owner "
                        f"{entry.owner} but occupant {rset.occupant(slot)}")
                    assert entry.dirty == 0, (
                        f"set {set_index} way {way}: mHBM page carries "
                        f"dirty blocks {entry.dirty:#x}")
                    assert entry.owner not in owners_seen, (
                        f"set {set_index}: page {entry.owner} owned by "
                        f"two ways")
                    owners_seen.add(entry.owner)
                elif entry.mode is WayMode.CHBM:
                    occupied_pages += 1
                    assert not rset.is_occupied(slot), (
                        f"set {set_index} way {way}: cHBM way's slot is "
                        "OS-occupied")
                    home = rset.slot_of(entry.owner)
                    assert 0 <= home < g.dram_slots, (
                        f"set {set_index} way {way}: cached page "
                        f"{entry.owner} does not live in DRAM (slot {home})")
                    assert entry.dirty & ~entry.valid == 0, (
                        f"set {set_index} way {way}: dirty blocks "
                        f"{entry.dirty:#x} outside valid {entry.valid:#x}")
                    assert entry.owner not in owners_seen, (
                        f"set {set_index}: page {entry.owner} cached by "
                        f"two ways")
                    owners_seen.add(entry.owner)
                else:
                    assert entry.owner == -1 and entry.valid == 0, (
                        f"set {set_index} way {way}: free way retains "
                        f"owner {entry.owner} / valid {entry.valid:#x}")
                    assert entry.dirty == 0, (
                        f"set {set_index} way {way}: free way retains "
                        f"dirty blocks {entry.dirty:#x}")
            # A flush empties every way of the set it disables, and
            # without mHBM ways nothing can fill one until the re-enable:
            # pass 1's off-chip class relies on it.
            assert not (owners_seen and self._chbm_disabled[set_index]
                        and not self._mhbm_any), (
                f"set {set_index}: cHBM disabled with no mHBM ways, yet "
                f"ways hold pages {sorted(owners_seen)}")
        assert occupied_pages * self._page_bytes \
            <= self.hbm.capacity_bytes, (
            f"{occupied_pages} occupied HBM pages of {self._page_bytes}B "
            f"exceed the {self.hbm.capacity_bytes}B stack")


# ---- design registry ------------------------------------------------------

#: Sweepable Bumblebee parameters: every BumblebeeConfig field plus the
#: ``chbm_ratio`` convenience knob (fraction of the HBM ways statically
#: partitioned as cHBM; maps to ``fixed_chbm_ways``).  Allocation is
#: declared as its JSON string form so specs stay plain data.
_BUMBLEBEE_PARAMS = {
    f.name: (f.default.value if isinstance(f.default, AllocationPolicy)
             else f.default)
    for f in dataclasses.fields(BumblebeeConfig)
}
_BUMBLEBEE_PARAMS["chbm_ratio"] = None


@register_design(
    "Bumblebee", params=_BUMBLEBEE_PARAMS,
    description="The paper's MemCache HMMC (multiplexed cHBM/mHBM, "
                "hotness allocation, HMF movement)",
    figures=(("fig8", 5), ("fig7", 9)))
def build_bumblebee(hbm_config: DeviceConfig, dram_config: DeviceConfig,
                    *, name: str = "Bumblebee",
                    **params) -> BumblebeeController:
    """Registry builder: a Bumblebee controller from spec parameters.

    ``chbm_ratio`` and ``fixed_chbm_ways`` are mutually exclusive ways
    of asking for a static partition; ``allocation`` accepts the policy
    enum, its value string, or the ``adaptive`` alias.
    """
    chbm_ratio = params.pop("chbm_ratio", None)
    if chbm_ratio is not None:
        if params.get("fixed_chbm_ways") is not None:
            raise ValueError(
                "give either chbm_ratio or fixed_chbm_ways, not both")
        check_fraction("chbm_ratio", chbm_ratio)
        ways = params.get("hbm_ways", BumblebeeConfig.hbm_ways)
        params["fixed_chbm_ways"] = round(ways * chbm_ratio)
    if "allocation" in params:
        params["allocation"] = AllocationPolicy.parse(params["allocation"])
    config = BumblebeeConfig(**params)
    return BumblebeeController(hbm_config, dram_config, config, name=name)


# The Figure 7 movement/placement ablations are pure Bumblebee
# parameterisations (the static-partition bars live in
# repro.baselines.static next to their ratio helpers).
register_spec("No-Multi", "Bumblebee", {"multiplexed": False},
              description="Separate cHBM/mHBM spaces: every mode switch "
                          "pays full data movement",
              figures=(("fig7", 4),))
register_spec("Meta-H", "Bumblebee", {"metadata_in_hbm": True},
              description="All metadata in HBM: a metadata round trip "
                          "on every request",
              figures=(("fig7", 5),))
register_spec("Alloc-D", "Bumblebee", {"allocation": "dram"},
              description="Every new page allocates off-chip first",
              figures=(("fig7", 6),))
register_spec("Alloc-H", "Bumblebee", {"allocation": "hbm"},
              description="Fill HBM first on allocation",
              figures=(("fig7", 7),))
register_spec("No-HMF", "Bumblebee", {"hmf_enabled": False},
              description="High-memory-footprint movement rules disabled",
              figures=(("fig7", 8),))
