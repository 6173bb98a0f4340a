"""Unison Cache (Jevdjic et al., MICRO 2014) — page-based cHBM baseline.

Unison caches 4KB pages in a set-associative HBM array with tags embedded
alongside the data.  Two predictors keep the embedded tags affordable:

* a **way predictor** lets the demand access read the predicted way's tag
  and data in one HBM access; a misprediction costs a second access;
* a **footprint predictor** remembers which 64B lines of a page were used
  during its previous residency and fetches only those on the next miss,
  taming the over-fetch that naive page-grain caching suffers.

Misses still pay the embedded-tag probe in HBM before going off-chip —
the metadata-access latency Bumblebee's SRAM-resident metadata avoids.

Way state is two structures: ``_tags[set]`` is a short list of the set's
page tags (-1 for an empty way), so a lookup is ``tag in row`` /
``row.index(tag)``; the per-way line vectors ``_valid``, ``_dirty``,
``_used`` and ``_brought`` and the LRU stamps ``_lru`` are flat lists
indexed ``set * WAYS + way``.
"""

from __future__ import annotations

import random

import numpy as np

from ..designs import register_design
from ..mem.timing import DeviceConfig
from ..sim.request import AccessResult, MemoryRequest, ServicedBy
from .base import HybridMemoryController

PAGE_BYTES = 4096
LINE_BYTES = 64
LINES_PER_PAGE = PAGE_BYTES // LINE_BYTES
WAYS = 4
TAG_BYTES = 8
FOOTPRINT_BYTES = LINES_PER_PAGE // 8


class UnisonCacheController(HybridMemoryController):
    """4-way page-granular cache with way + footprint prediction."""

    #: Modelled way-predictor accuracy (the paper reports ~95% on hits).
    WAY_PREDICTION_ACCURACY = 0.95

    def __init__(self, hbm_config: DeviceConfig, dram_config: DeviceConfig,
                 name: str = "UnisonCache", seed: int = 7) -> None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        super().__init__(hbm_config, dram_config, name=name)
        page_slots = self.hbm.capacity_bytes // (
            PAGE_BYTES + TAG_BYTES + FOOTPRINT_BYTES)
        self._sets = max(1, page_slots // WAYS)
        slots = self._sets * WAYS
        self._tags = [[-1] * WAYS for _ in range(self._sets)]
        self._valid = [0] * slots
        self._dirty = [0] * slots
        self._used = [0] * slots
        self._brought = [0] * slots
        self._lru = [0] * slots
        self._footprints: dict[int, int] = {}
        self._clock = 0
        self._rng = random.Random(seed)

    def _locate(self, addr: int) -> tuple[int, int, int]:
        page = addr // PAGE_BYTES
        return page % self._sets, page // self._sets, (
            addr % PAGE_BYTES) // LINE_BYTES

    def _hbm_addr(self, set_index: int, way: int, line: int) -> int:
        stride = PAGE_BYTES + TAG_BYTES + FOOTPRINT_BYTES
        return ((set_index * WAYS + way) * stride + line * LINE_BYTES) % \
            self.hbm.capacity_bytes

    def access(self, request: MemoryRequest, now_ns: float) -> AccessResult:
        self._clock += 1
        set_index, tag, line = self._locate(request.addr)
        row = self._tags[set_index]
        hit_way = row.index(tag) if tag in row else None
        if hit_way is not None and \
                self._valid[set_index * WAYS + hit_way] >> line & 1:
            slot = set_index * WAYS + hit_way
            self._lru[slot] = self._clock
            self._used[slot] |= 1 << line
            if request.is_write:
                self._dirty[slot] |= 1 << line
            mispredict = self._rng.random() > self.WAY_PREDICTION_ACCURACY
            extra_ns = 0.0
            if mispredict:
                # Wrong way read first: one extra HBM access.
                extra_ns = self.hbm.access(
                    self._hbm_addr(set_index, (hit_way + 1) % WAYS, line),
                    LINE_BYTES, False, now_ns) - now_ns
                self.stats.bump("way_mispredictions")
            result = self._demand_hbm(
                self._hbm_addr(set_index, hit_way, line), request,
                now_ns + extra_ns)
            return AccessResult(
                latency_ns=extra_ns + result.latency_ns,
                serviced_by=ServicedBy.HBM,
                metadata_ns=extra_ns,
                hbm_hit=True,
            )
        # Miss (page absent, or resident without this line): the embedded
        # tag probe happens in HBM before the off-chip access.
        probe_ns = self.hbm.access(
            self._hbm_addr(set_index, hit_way or 0, 0), TAG_BYTES, False,
            now_ns) - now_ns
        self.stats.bump("metadata_accesses")
        result = self._demand_dram(request.addr, request, now_ns + probe_ns)
        if hit_way is not None:
            self._fill_line(set_index, hit_way, line, request, now_ns)
        else:
            self._fill_page(set_index, tag, line, request, now_ns)
        return AccessResult(
            latency_ns=probe_ns + result.latency_ns,
            serviced_by=ServicedBy.DRAM,
            metadata_ns=probe_ns,
            hbm_hit=False,
        )

    def _fill_line(self, set_index: int, way_index: int, line: int,
                   request: MemoryRequest, now_ns: float) -> None:
        """The page is resident but the footprint missed this line."""
        slot = set_index * WAYS + way_index
        self.mover.fetch_to_hbm(
            request.addr % self.dram.capacity_bytes,
            self._hbm_addr(set_index, way_index, line), LINE_BYTES, now_ns)
        bit = 1 << line
        self._valid[slot] |= bit
        self._brought[slot] |= bit
        self._used[slot] |= bit
        if request.is_write:
            self._dirty[slot] |= bit
        self._lru[slot] = self._clock

    def _fill_page(self, set_index: int, tag: int, line: int,
                   request: MemoryRequest, now_ns: float) -> None:
        """Page miss: evict the LRU way, fetch the predicted footprint."""
        base = set_index * WAYS
        lrus = self._lru[base:base + WAYS]
        victim_index = lrus.index(min(lrus))
        if self._tags[set_index][victim_index] >= 0:
            self._evict(set_index, victim_index, now_ns)
        page = tag * self._sets + set_index
        footprint = self._footprints.get(page, 0) | (1 << line)
        nbytes = footprint.bit_count() * LINE_BYTES
        page_base = (page * PAGE_BYTES) % self.dram.capacity_bytes
        self.mover.fetch_to_hbm(page_base,
                                self._hbm_addr(set_index, victim_index, 0),
                                nbytes, now_ns)
        slot = base + victim_index
        self._tags[set_index][victim_index] = tag
        self._valid[slot] = footprint
        self._brought[slot] = footprint
        self._used[slot] = 1 << line
        self._dirty[slot] = (1 << line) if request.is_write else 0
        self._lru[slot] = self._clock
        self.stats.bump("page_fills")

    def _evict(self, set_index: int, way_index: int,
               now_ns: float) -> None:
        row = self._tags[set_index]
        slot = set_index * WAYS + way_index
        page = row[way_index] * self._sets + set_index
        dirty = self._dirty[slot].bit_count() * LINE_BYTES
        if dirty:
            self.mover.writeback_to_dram(
                self._hbm_addr(set_index, way_index, 0),
                (page * PAGE_BYTES) % self.dram.capacity_bytes,
                dirty, now_ns)
        # Teach the footprint predictor what this residency actually used.
        used = self._used[slot]
        self._footprints[page] = used
        unused = (self._brought[slot] & ~used).bit_count()
        if unused:
            self.stats.bump("overfetch_bytes", unused * LINE_BYTES)
        self.stats.bump("page_evictions")
        row[way_index] = -1
        self._valid[slot] = self._dirty[slot] = 0
        self._used[slot] = self._brought[slot] = 0

    # ------------------------------------------------------------------
    # two-pass epoch replay protocol (repro.sim.vectorized.replay_epoch)
    # ------------------------------------------------------------------

    def batch_epoch_plan(self, addr, is_write):
        """Pass 1: forward-replay the epoch's metadata, emit an op table.

        Unison's state machine (tags, valid/dirty/used line vectors,
        LRU clock, footprint predictor) never reads device timing, and
        the way predictor's RNG draws only on hits — in request order —
        so pass 1 replays the whole epoch in scalar order against the
        live state: mispredicted hits and misses carry their serial
        HBM probe as a ``PROBE`` row of the op table, fills and
        evictions carry their movement as ``POST_BULK`` rows.
        """
        from ..sim.vectorized import POST_BULK, PROBE, EpochPlan
        sets = self._sets
        hbm_cap = self._hbm_capacity
        dram_cap = self._dram_capacity
        stride = PAGE_BYTES + TAG_BYTES + FOOTPRINT_BYTES
        page = addr // PAGE_BYTES
        set_l = (page % sets).tolist()
        tag_l = (page // sets).tolist()
        line_l = ((addr % PAGE_BYTES) // LINE_BYTES).tolist()
        dram_l = (addr % dram_cap).tolist()
        wr_l = np.asarray(is_write, dtype=bool).tolist()
        m = len(set_l)
        tags_all = self._tags
        valid = self._valid
        dirty_l = self._dirty
        used = self._used
        brought = self._brought
        lru = self._lru
        clock = self._clock
        rng_random = self._rng.random
        footprints = self._footprints
        accuracy = self.WAY_PREDICTION_ACCURACY
        use = [True] * m
        local = [0] * m
        ops: list[int] = []
        emit = ops.extend
        mispredicts = probes = fills = evictions = 0
        fetch_total = wb_total = overfetch = 0
        for i, (s, tg, ln, da, wr) in enumerate(zip(
                set_l, tag_l, line_l, dram_l, wr_l)):
            clock += 1
            row = tags_all[s]
            base = s * WAYS
            bit = 1 << ln
            if tg in row:
                hit_way = row.index(tg)
                slot = base + hit_way
                if valid[slot] & bit:
                    lru[slot] = clock
                    used[slot] |= bit
                    if wr:
                        dirty_l[slot] |= bit
                    if rng_random() > accuracy:
                        emit((i, PROBE, 0, ((base + (hit_way + 1) % WAYS)
                                            * stride + ln * LINE_BYTES)
                              % hbm_cap, LINE_BYTES, 0))
                        mispredicts += 1
                    local[i] = (slot * stride + ln * LINE_BYTES) % hbm_cap
                    continue
                # Resident page, footprint-missed line: 64B line fill.
                use[i] = False
                local[i] = da
                emit((i, PROBE, 0, (slot * stride) % hbm_cap, TAG_BYTES, 0,
                      i, POST_BULK, 1, da, LINE_BYTES, 0,
                      i, POST_BULK, 0, (slot * stride + ln * LINE_BYTES)
                      % hbm_cap, LINE_BYTES, 1))
                probes += 1
                fetch_total += LINE_BYTES
                valid[slot] |= bit
                brought[slot] |= bit
                used[slot] |= bit
                if wr:
                    dirty_l[slot] |= bit
                lru[slot] = clock
                continue
            use[i] = False
            local[i] = da
            emit((i, PROBE, 0, (base * stride) % hbm_cap, TAG_BYTES, 0))
            probes += 1
            window = lru[base:base + WAYS]
            victim_index = window.index(min(window))
            slot = base + victim_index
            old_tag = row[victim_index]
            if old_tag >= 0:
                old_pg = old_tag * sets + s
                dirty = dirty_l[slot].bit_count() * LINE_BYTES
                if dirty:
                    emit((i, POST_BULK, 0, (slot * stride) % hbm_cap,
                          dirty, 0,
                          i, POST_BULK, 1,
                          (old_pg * PAGE_BYTES) % dram_cap, dirty, 1))
                    wb_total += dirty
                footprints[old_pg] = used[slot]
                unused = (brought[slot] & ~used[slot]).bit_count()
                if unused:
                    overfetch += unused * LINE_BYTES
                evictions += 1
            pg = tg * sets + s
            footprint = footprints.get(pg, 0) | bit
            nb = footprint.bit_count() * LINE_BYTES
            emit((i, POST_BULK, 1, (pg * PAGE_BYTES) % dram_cap, nb, 0,
                  i, POST_BULK, 0, (slot * stride) % hbm_cap, nb, 1))
            fetch_total += nb
            row[victim_index] = tg
            valid[slot] = footprint
            brought[slot] = footprint
            used[slot] = bit
            dirty_l[slot] = bit if wr else 0
            lru[slot] = clock
            fills += 1
        self._clock = clock
        bump = self.stats.bump
        if mispredicts:
            bump("way_mispredictions", mispredicts)
        if probes:
            bump("metadata_accesses", probes)
        if fills:
            bump("page_fills", fills)
        if evictions:
            bump("page_evictions", evictions)
        if overfetch:
            bump("overfetch_bytes", overfetch)
        if fetch_total:
            bump("fetch_bytes", fetch_total)
            bump("fetched_bytes", fetch_total)
        if wb_total:
            bump("writeback_bytes", wb_total)
        return EpochPlan(use_hbm=np.asarray(use, dtype=bool),
                         local_addr=np.asarray(local, dtype=np.int64),
                         ops=ops)

    def reset_measurements(self) -> None:
        super().reset_measurements()
        slots = len(self._lru)
        self._brought = [0] * slots
        self._used = [0] * slots

    def metadata_bytes(self) -> int:
        """Embedded tags + footprint vectors (HBM-resident)."""
        return self._sets * WAYS * (TAG_BYTES + FOOTPRINT_BYTES)

    def metadata_in_sram(self) -> bool:
        return False

    def os_visible_bytes(self) -> int:
        """The stack is a cache (or absent): the OS sees only DRAM."""
        return self.dram.capacity_bytes


@register_design(
    "UnisonCache",
    params={"seed": 7},
    description="4-way page-granular cache with way + footprint "
                "prediction (seeded predictor)",
    figures=(("fig8", 2),))
def _build_unison(hbm_config, dram_config, *, name="UnisonCache", seed=7):
    return UnisonCacheController(hbm_config, dram_config, name=name,
                                 seed=seed)
