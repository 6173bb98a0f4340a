"""Hybrid2 (Vasilakis et al., HPCA 2020) — the state-of-the-art hybrid
baseline Bumblebee is measured against.

Hybrid2 statically partitions the stack: a small, fixed cHBM (64MB of the
1GB stack in the paper — the same 1/16 fraction at any system scale) acts
as a staging cache of 256B blocks, and the remainder is OS-visible mHBM
managed in 2KB pages.  The design exhibits precisely the three limitations
the Bumblebee paper targets:

1. the cHBM:mHBM ratio is fixed at boot;
2. cHBM and mHBM are *separate* spaces, so promoting a well-utilised
   cached page into mHBM stages the full page across (and, when the mHBM
   set is full, first swaps a victim page out to off-chip DRAM);
3. fine metadata granularity (256B blocks / 2KB pages) inflates the
   metadata footprint beyond SRAM, so lookups missing the 512KB SRAM
   metadata cache pay an HBM round trip (MAL).

The staging cache's way state is two structures: ``_block_tags[set]`` is
a short list of the set's block tags (-1 for an empty way), so a lookup
is ``tag in row`` / ``row.index(tag)``; the per-way fields
``_block_dirty``, ``_block_used`` and ``_block_lru`` are flat lists
indexed ``set * CACHE_WAYS + way``.
"""

from __future__ import annotations

import numpy as np

from ..designs import register_design
from ..mem.timing import DeviceConfig
from ..sim.request import AccessResult, MemoryRequest, ServicedBy
from .base import HybridMemoryController
from .metacache import MetadataCache

BLOCK_BYTES = 256
PAGE_BYTES = 2048
LINE_BYTES = 64
BLOCKS_PER_PAGE = PAGE_BYTES // BLOCK_BYTES
LINES_PER_BLOCK = BLOCK_BYTES // LINE_BYTES
CACHE_WAYS = 8
POM_WAYS = 8
#: cHBM share of the stack: 64MB of 1GB in the paper.
CHBM_FRACTION = 1.0 / 16.0
#: Cached blocks (out of 8) that trigger promotion of a page into mHBM.
PROMOTE_THRESHOLD = 6


class Hybrid2Controller(HybridMemoryController):
    """Fixed 1/16 cHBM staging cache plus 2KB-page mHBM (POM)."""

    def __init__(self, hbm_config: DeviceConfig, dram_config: DeviceConfig,
                 sram_bytes: int = 512 * 1024,
                 name: str = "Hybrid2") -> None:
        super().__init__(hbm_config, dram_config, name=name)
        hbm_bytes = self.hbm.capacity_bytes
        chbm_bytes = int(hbm_bytes * CHBM_FRACTION)
        blocks = chbm_bytes // BLOCK_BYTES
        self._cache_sets = max(1, blocks // CACHE_WAYS)
        slots = self._cache_sets * CACHE_WAYS
        self._block_tags = [[-1] * CACHE_WAYS
                            for _ in range(self._cache_sets)]
        self._block_dirty = [False] * slots
        self._block_used = [0] * slots
        self._block_lru = [0] * slots
        self._page_blocks: dict[int, int] = {}

        mhbm_bytes = hbm_bytes - chbm_bytes
        self._mhbm_slots = mhbm_bytes // PAGE_BYTES
        self._pom_sets = max(1, self._mhbm_slots // POM_WAYS)
        # resident[set] maps page -> (way, lru)
        self._resident: list[dict[int, list[int]]] = [
            {} for _ in range(self._pom_sets)]
        self._free_ways: list[list[int]] = [
            list(range(POM_WAYS)) for _ in range(self._pom_sets)]
        self._chbm_base = self._mhbm_slots * PAGE_BYTES
        self._clock = 0

        total_pages = (self.dram.capacity_bytes + hbm_bytes) // PAGE_BYTES
        self._metadata = MetadataCache(
            sram_bytes=sram_bytes, entry_bytes=8, total_entries=total_pages)

    # ---- address helpers -------------------------------------------------

    def _page_of(self, addr: int) -> int:
        return addr // PAGE_BYTES

    def _pom_set(self, page: int) -> int:
        return page % self._pom_sets

    def _mhbm_addr(self, set_index: int, way: int, offset: int) -> int:
        return ((set_index * POM_WAYS + way) * PAGE_BYTES + offset) % \
            self.hbm.capacity_bytes

    def _chbm_addr(self, set_index: int, way: int, offset: int) -> int:
        return (self._chbm_base
                + (set_index * CACHE_WAYS + way) * BLOCK_BYTES
                + offset) % self.hbm.capacity_bytes

    # ---- access path -------------------------------------------------------

    def access(self, request: MemoryRequest, now_ns: float) -> AccessResult:
        self._clock += 1
        page = self._page_of(request.addr)
        metadata_ns = 0.0
        if not self._metadata.lookup(page):
            metadata_ns = self._metadata_access_ns(now_ns)
        pom_set = self._pom_set(page)
        entry = self._resident[pom_set].get(page)
        if entry is not None:
            entry[1] = self._clock
            return self._demand_hbm(
                self._mhbm_addr(pom_set, entry[0],
                                request.addr % PAGE_BYTES),
                request, now_ns, metadata_ns)
        return self._access_cache(page, request, now_ns, metadata_ns)

    def _access_cache(self, page: int, request: MemoryRequest,
                      now_ns: float, metadata_ns: float) -> AccessResult:
        block = request.addr // BLOCK_BYTES
        set_index = block % self._cache_sets
        tag = block // self._cache_sets
        line_in_block = (request.addr % BLOCK_BYTES) // LINE_BYTES
        row = self._block_tags[set_index]
        if tag in row:
            way = row.index(tag)
            slot = set_index * CACHE_WAYS + way
            self._block_lru[slot] = self._clock
            self._block_used[slot] |= 1 << line_in_block
            if request.is_write:
                self._block_dirty[slot] = True
            return self._demand_hbm(
                self._chbm_addr(set_index, way, request.addr % BLOCK_BYTES),
                request, now_ns, metadata_ns)
        result = self._demand_dram(request.addr, request, now_ns,
                                   metadata_ns)
        self._insert_block(page, block, set_index, tag, line_in_block,
                           request, now_ns)
        return result

    # ---- cHBM staging cache -------------------------------------------------

    def _insert_block(self, page: int, block: int, set_index: int, tag: int,
                      line_in_block: int, request: MemoryRequest,
                      now_ns: float) -> None:
        """Hybrid2 caches *every* requested block (no hotness filter)."""
        row = self._block_tags[set_index]
        base = set_index * CACHE_WAYS
        if -1 in row:
            way = row.index(-1)
        else:
            lrus = self._block_lru[base:base + CACHE_WAYS]
            way = lrus.index(min(lrus))
            self._evict_block(set_index, way, now_ns)
        self.mover.fetch_to_hbm(
            (block * BLOCK_BYTES) % self.dram.capacity_bytes,
            self._chbm_addr(set_index, way, 0), BLOCK_BYTES, now_ns)
        slot = base + way
        row[way] = tag
        self._block_dirty[slot] = request.is_write
        self._block_used[slot] = 1 << line_in_block
        self._block_lru[slot] = self._clock
        self.stats.bump("block_fills")
        mask = self._page_blocks.get(page, 0) | (
            1 << (block % BLOCKS_PER_PAGE))
        self._page_blocks[page] = mask
        if mask.bit_count() >= PROMOTE_THRESHOLD:
            self._promote_page(page, now_ns)

    def _evict_block(self, set_index: int, way: int, now_ns: float) -> None:
        row = self._block_tags[set_index]
        slot = set_index * CACHE_WAYS + way
        block = row[way] * self._cache_sets + set_index
        if self._block_dirty[slot]:
            self.mover.writeback_to_dram(
                self._chbm_addr(set_index, way, 0),
                (block * BLOCK_BYTES) % self.dram.capacity_bytes,
                BLOCK_BYTES, now_ns)
        unused = LINES_PER_BLOCK - self._block_used[slot].bit_count()
        if unused > 0:
            self.stats.bump("overfetch_bytes", unused * LINE_BYTES)
        page = block * BLOCK_BYTES // PAGE_BYTES
        mask = self._page_blocks.get(page)
        if mask is not None:
            mask &= ~(1 << (block % BLOCKS_PER_PAGE))
            if mask:
                self._page_blocks[page] = mask
            else:
                self._page_blocks.pop(page, None)
        row[way] = -1
        self._block_dirty[slot] = False
        self._block_used[slot] = 0
        self.stats.bump("block_evictions")

    # ---- mHBM (POM) region ----------------------------------------------

    def _promote_page(self, page: int, now_ns: float) -> None:
        """Move a well-utilised page from the staging cache into mHBM.

        Separate spaces force full staging: the whole 2KB page is read
        (from DRAM, where the authoritative copy lives) and written into
        the mHBM region; cached blocks are invalidated (dirty ones written
        back first); and when the set is full, a victim mHBM page is
        swapped out to off-chip DRAM — the "unnecessary migration cost"
        of §II-B.
        """
        pom_set = self._pom_set(page)
        resident = self._resident[pom_set]
        free = self._free_ways[pom_set]
        if free:
            way = free.pop()
        else:
            victim_page = min(resident, key=lambda p: resident[p][1])
            way = resident.pop(victim_page)[0]
            self.mover.writeback_to_dram(
                self._mhbm_addr(pom_set, way, 0),
                (victim_page * PAGE_BYTES) % self.dram.capacity_bytes,
                PAGE_BYTES, now_ns, mode_switch=True)
            self.stats.bump("pom_evictions")
        self._drop_cached_blocks(page, now_ns)
        self.mover.fetch_to_hbm(
            (page * PAGE_BYTES) % self.dram.capacity_bytes,
            self._mhbm_addr(pom_set, way, 0), PAGE_BYTES, now_ns,
            mode_switch=True)
        resident[page] = [way, self._clock]
        self.stats.bump("promotions")

    def _drop_cached_blocks(self, page: int, now_ns: float) -> None:
        mask = self._page_blocks.pop(page, 0)
        if not mask:
            return
        first_block = page * BLOCKS_PER_PAGE
        for i in range(BLOCKS_PER_PAGE):
            if not mask >> i & 1:
                continue
            block = first_block + i
            set_index = block % self._cache_sets
            tag = block // self._cache_sets
            row = self._block_tags[set_index]
            if tag not in row:
                continue
            way = row.index(tag)
            slot = set_index * CACHE_WAYS + way
            if self._block_dirty[slot]:
                self.mover.writeback_to_dram(
                    self._chbm_addr(set_index, way, 0),
                    (block * BLOCK_BYTES) % self.dram.capacity_bytes,
                    BLOCK_BYTES, now_ns, mode_switch=True)
            row[way] = -1
            self._block_dirty[slot] = False
            self._block_used[slot] = 0


    # ------------------------------------------------------------------
    # two-pass epoch replay protocol (repro.sim.vectorized.replay_epoch)
    # ------------------------------------------------------------------

    def batch_epoch_plan(self, addr, is_write):
        """Pass 1: forward-replay the epoch's metadata, emit an op table.

        Hybrid2's state — POM residency, staging-cache slots, LRU
        clock, page-block masks, and the SRAM metadata cache — is
        address-only deterministic (the clock is a counter, never a
        timestamp), so pass 1 replays the whole epoch in scalar order
        against the live state.  Its SRAM metadata lookups depend on
        the page sequence alone, so the real :class:`MetadataCache`
        resolves the whole epoch's in one
        :meth:`~MetadataCache.lookup_many` call.  Variable metadata
        latency rides in ``plan.meta``; block fills, evictions, and the
        promotion cascade carry their movement as ``POST_BULK`` rows of
        the op table in exact scalar call order.
        """
        from ..sim.vectorized import POST_BULK, EpochPlan
        hbm_cap = self._hbm_capacity
        dram_cap = self._dram_capacity
        cache_sets = self._cache_sets
        pom_sets = self._pom_sets
        chbm_base = self._chbm_base
        page_arr = addr // PAGE_BYTES
        page_l = page_arr.tolist()
        block_l = (addr // BLOCK_BYTES).tolist()
        addr_l = addr.tolist()
        dram_l = (addr % dram_cap).tolist()
        wr_l = np.asarray(is_write, dtype=bool).tolist()
        m = len(page_l)
        mal = (self.hbm.config.timings.row_closed_ns
               + self.hbm.config.burst_ns(64))
        sram_hit = self._metadata.lookup_many(page_arr)
        meta_misses = m - int(sram_hit.sum())
        meta = np.where(sram_hit, 0.0, mal).tolist()
        clock = self._clock
        block_tags = self._block_tags
        bdirty = self._block_dirty
        bused = self._block_used
        blru = self._block_lru
        resident_all = self._resident
        free_all = self._free_ways
        page_blocks = self._page_blocks
        use = [True] * m
        local = [0] * m
        ops: list[int] = []
        emit = ops.extend
        block_fills = block_evictions = overfetch = 0
        pom_evictions = promotions = 0
        fetch_total = wb_total = mode_switch = 0
        for i, (page, block, a, da, wr) in enumerate(zip(
                page_l, block_l, addr_l, dram_l, wr_l)):
            clock += 1
            pom_set = page % pom_sets
            resident = resident_all[pom_set]
            entry = resident.get(page)
            if entry is not None:
                entry[1] = clock
                local[i] = ((pom_set * POM_WAYS + entry[0]) * PAGE_BYTES
                            + a % PAGE_BYTES) % hbm_cap
                continue
            set_index = block % cache_sets
            tag = block // cache_sets
            row = block_tags[set_index]
            base = set_index * CACHE_WAYS
            if tag in row:
                slot = base + row.index(tag)
                blru[slot] = clock
                bused[slot] |= 1 << ((a % BLOCK_BYTES) // LINE_BYTES)
                if wr:
                    bdirty[slot] = True
                local[i] = (chbm_base + slot * BLOCK_BYTES
                            + a % BLOCK_BYTES) % hbm_cap
                continue
            use[i] = False
            local[i] = da
            if -1 in row:
                way = row.index(-1)
                slot = base + way
            else:
                window = blru[base:base + CACHE_WAYS]
                way = window.index(min(window))
                slot = base + way
                vblock = row[way] * cache_sets + set_index
                if bdirty[slot]:
                    emit((i, POST_BULK, 0, (chbm_base + slot * BLOCK_BYTES)
                          % hbm_cap, BLOCK_BYTES, 0,
                          i, POST_BULK, 1, (vblock * BLOCK_BYTES) % dram_cap,
                          BLOCK_BYTES, 1))
                    wb_total += BLOCK_BYTES
                unused = LINES_PER_BLOCK - bused[slot].bit_count()
                if unused > 0:
                    overfetch += unused * LINE_BYTES
                vpage = vblock * BLOCK_BYTES // PAGE_BYTES
                mask = page_blocks.get(vpage)
                if mask is not None:
                    mask &= ~(1 << (vblock % BLOCKS_PER_PAGE))
                    if mask:
                        page_blocks[vpage] = mask
                    else:
                        page_blocks.pop(vpage, None)
                block_evictions += 1
            emit((i, POST_BULK, 1, (block * BLOCK_BYTES) % dram_cap,
                  BLOCK_BYTES, 0,
                  i, POST_BULK, 0, (chbm_base + slot * BLOCK_BYTES)
                  % hbm_cap, BLOCK_BYTES, 1))
            fetch_total += BLOCK_BYTES
            row[way] = tag
            bdirty[slot] = wr
            bused[slot] = 1 << ((a % BLOCK_BYTES) // LINE_BYTES)
            blru[slot] = clock
            block_fills += 1
            mask = page_blocks.get(page, 0) | (
                1 << (block % BLOCKS_PER_PAGE))
            page_blocks[page] = mask
            if mask.bit_count() >= PROMOTE_THRESHOLD:
                free = free_all[pom_set]
                if free:
                    pway = free.pop()
                else:
                    victim_page = min(resident,
                                      key=lambda p: resident[p][1])
                    pway = resident.pop(victim_page)[0]
                    emit((i, POST_BULK, 0, ((pom_set * POM_WAYS + pway)
                                            * PAGE_BYTES) % hbm_cap,
                          PAGE_BYTES, 0,
                          i, POST_BULK, 1,
                          (victim_page * PAGE_BYTES) % dram_cap,
                          PAGE_BYTES, 1))
                    wb_total += PAGE_BYTES
                    mode_switch += PAGE_BYTES
                    pom_evictions += 1
                dmask = page_blocks.pop(page, 0)
                if dmask:
                    first_block = page * BLOCKS_PER_PAGE
                    for bi in range(BLOCKS_PER_PAGE):
                        if not dmask >> bi & 1:
                            continue
                        b = first_block + bi
                        si = b % cache_sets
                        btag = b // cache_sets
                        brow = block_tags[si]
                        if btag not in brow:
                            continue
                        wj = brow.index(btag)
                        bslot = si * CACHE_WAYS + wj
                        if bdirty[bslot]:
                            emit((i, POST_BULK, 0,
                                  (chbm_base + bslot * BLOCK_BYTES)
                                  % hbm_cap, BLOCK_BYTES, 0,
                                  i, POST_BULK, 1,
                                  (b * BLOCK_BYTES) % dram_cap,
                                  BLOCK_BYTES, 1))
                            wb_total += BLOCK_BYTES
                            mode_switch += BLOCK_BYTES
                        brow[wj] = -1
                        bdirty[bslot] = False
                        bused[bslot] = 0
                emit((i, POST_BULK, 1, (page * PAGE_BYTES) % dram_cap,
                      PAGE_BYTES, 0,
                      i, POST_BULK, 0, ((pom_set * POM_WAYS + pway)
                                        * PAGE_BYTES) % hbm_cap,
                      PAGE_BYTES, 1))
                fetch_total += PAGE_BYTES
                mode_switch += PAGE_BYTES
                resident[page] = [pway, clock]
                promotions += 1
        self._clock = clock
        bump = self.stats.bump
        if meta_misses:
            bump("metadata_accesses", meta_misses)
        if block_fills:
            bump("block_fills", block_fills)
        if block_evictions:
            bump("block_evictions", block_evictions)
        if overfetch:
            bump("overfetch_bytes", overfetch)
        if pom_evictions:
            bump("pom_evictions", pom_evictions)
        if promotions:
            bump("promotions", promotions)
        if fetch_total:
            bump("fetch_bytes", fetch_total)
            bump("fetched_bytes", fetch_total)
        if wb_total:
            bump("writeback_bytes", wb_total)
        if mode_switch:
            bump("mode_switch_bytes", mode_switch)
        return EpochPlan(use_hbm=np.asarray(use, dtype=bool),
                         local_addr=np.asarray(local, dtype=np.int64),
                         meta=meta, ops=ops)

    def reset_measurements(self) -> None:
        super().reset_measurements()
        # A resident block counts as fully used, so warm-up fills are not
        # charged as measured overfetch; an empty way's mask is 0.
        full = (1 << LINES_PER_BLOCK) - 1
        self._block_used = [full if tag >= 0 else 0
                            for row in self._block_tags for tag in row]

    def metadata_bytes(self) -> int:
        return self._metadata.total_bytes

    def metadata_in_sram(self) -> bool:
        return self._metadata.fits_sram

    def os_visible_bytes(self) -> int:
        """DRAM plus the mHBM region; the fixed cHBM is hidden from the OS."""
        return self.dram.capacity_bytes + self._mhbm_slots * PAGE_BYTES


@register_design(
    "Hybrid2",
    params={"sram_bytes": 512 * 1024},
    description="Fixed 1/16 cHBM staging cache plus 2KB-page POM "
                "(sram_bytes budgets the metadata cache)",
    figures=(("fig8", 4),))
def _build_hybrid2(hbm_config, dram_config, *, name="Hybrid2",
                   sram_bytes=512 * 1024):
    return Hybrid2Controller(hbm_config, dram_config,
                             sram_bytes=sram_bytes, name=name)
