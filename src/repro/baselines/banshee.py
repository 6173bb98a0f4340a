"""Banshee (Yu et al., MICRO 2017) — bandwidth-efficient page-based cHBM.

Banshee tracks page placement through the page tables and TLBs, so demand
hits need no in-HBM tag probe at all.  Its replacement is *frequency-based
and lazy*: candidate pages earn sampled frequency counters, and a page is
only cached when its counter exceeds the victim's by a threshold — most
misses cause no data movement, which is exactly the bandwidth efficiency
the Bumblebee paper credits it with (lowest off-chip traffic among prior
designs, Figure 8c).
"""

from __future__ import annotations

from dataclasses import dataclass

try:
    import numpy as np
except ImportError:                                   # pragma: no cover
    np = None

from ..designs import register_design
from ..mem.timing import DeviceConfig
from ..sim.request import AccessResult, MemoryRequest
from .base import HybridMemoryController

PAGE_BYTES = 4096
LINE_BYTES = 64
WAYS = 4


@dataclass
class _ResidentPage:
    tag: int = -1
    counter: int = 0
    dirty: bool = False
    used_lines: int = 0


class BansheeController(HybridMemoryController):
    """Frequency-gated, lazily-replaced page cache with SRAM mapping."""

    #: One in SAMPLE_RATE misses updates frequency counters (Banshee's
    #: sampling keeps metadata traffic negligible).
    SAMPLE_RATE = 8
    #: A candidate must beat the victim by this margin to displace it.
    REPLACE_MARGIN = 2
    #: Counter cap.
    COUNTER_MAX = 255

    def __init__(self, hbm_config: DeviceConfig, dram_config: DeviceConfig,
                 name: str = "Banshee") -> None:
        super().__init__(hbm_config, dram_config, name=name)
        page_slots = self.hbm.capacity_bytes // PAGE_BYTES
        self._sets = max(1, page_slots // WAYS)
        self._ways = [[_ResidentPage() for _ in range(WAYS)]
                      for _ in range(self._sets)]
        self._candidate_counters: dict[int, int] = {}
        self._sample_tick = 0

    def _locate(self, addr: int) -> tuple[int, int, int]:
        page = addr // PAGE_BYTES
        return page % self._sets, page // self._sets, addr % PAGE_BYTES

    def _hbm_addr(self, set_index: int, way: int, offset: int) -> int:
        return ((set_index * WAYS + way) * PAGE_BYTES + offset) % \
            self.hbm.capacity_bytes

    def access(self, request: MemoryRequest, now_ns: float) -> AccessResult:
        set_index, tag, offset = self._locate(request.addr)
        ways = self._ways[set_index]
        for way_index, way in enumerate(ways):
            if way.tag == tag:
                way.counter = min(self.COUNTER_MAX, way.counter + 1)
                way.used_lines |= 1 << (offset // LINE_BYTES)
                if request.is_write:
                    way.dirty = True
                return self._demand_hbm(
                    self._hbm_addr(set_index, way_index, offset),
                    request, now_ns)
        result = self._demand_dram(request.addr, request, now_ns)
        self._consider_caching(set_index, tag, request, now_ns)
        return result

    def _consider_caching(self, set_index: int, tag: int,
                          request: MemoryRequest, now_ns: float) -> None:
        """Sampled frequency update plus gated replacement."""
        self._sample_tick += 1
        if self._sample_tick % self.SAMPLE_RATE:
            return
        page = tag * self._sets + set_index
        counter = self._candidate_counters.get(page, 0) + 1
        self._candidate_counters[page] = min(self.COUNTER_MAX, counter)
        ways = self._ways[set_index]
        empty = next((i for i, w in enumerate(ways) if w.tag < 0), None)
        if empty is not None:
            self._install(set_index, empty, tag, counter, request, now_ns)
            return
        victim_index = min(range(WAYS), key=lambda i: ways[i].counter)
        if counter >= ways[victim_index].counter + self.REPLACE_MARGIN:
            self._install(set_index, victim_index, tag, counter, request,
                          now_ns)
        else:
            self.stats.bump("replacement_rejected")

    def _install(self, set_index: int, way_index: int, tag: int,
                 counter: int, request: MemoryRequest,
                 now_ns: float) -> None:
        way = self._ways[set_index][way_index]
        if way.tag >= 0:
            self._evict(set_index, way_index, now_ns)
        page_base = ((tag * self._sets + set_index) * PAGE_BYTES) % \
            self.dram.capacity_bytes
        self.mover.fetch_to_hbm(page_base,
                                self._hbm_addr(set_index, way_index, 0),
                                PAGE_BYTES, now_ns)
        way.tag = tag
        way.counter = counter
        way.dirty = request.is_write
        way.used_lines = 1 << ((request.addr % PAGE_BYTES) // LINE_BYTES)
        self._candidate_counters.pop(tag * self._sets + set_index, None)
        self.stats.bump("page_fills")

    def _evict(self, set_index: int, way_index: int, now_ns: float) -> None:
        way = self._ways[set_index][way_index]
        page = way.tag * self._sets + set_index
        if way.dirty:
            # Banshee tracks dirtiness at page granularity: the whole page
            # is written back.
            self.mover.writeback_to_dram(
                self._hbm_addr(set_index, way_index, 0),
                (page * PAGE_BYTES) % self.dram.capacity_bytes,
                PAGE_BYTES, now_ns)
        self._account_overfetch(way)
        # The departing page keeps half its frequency history (ageing).
        self._candidate_counters[page] = way.counter // 2
        self.stats.bump("page_evictions")
        way.tag = -1
        way.counter = 0
        way.dirty = False
        way.used_lines = 0

    def _account_overfetch(self, way: _ResidentPage) -> None:
        unused = (PAGE_BYTES // LINE_BYTES) - way.used_lines.bit_count()
        if unused > 0:
            self.stats.bump("overfetch_bytes", unused * LINE_BYTES)

    # ------------------------------------------------------------------
    # two-pass epoch replay protocol (repro.sim.vectorized.replay_epoch)
    # ------------------------------------------------------------------

    def batch_epoch_plan(self, addr, is_write):
        """Pass 1: forward-replay the epoch's metadata, emit an op table.

        Banshee's replacement — way tags, frequency counters, the
        sample tick, candidate counters, and the install gate — never
        reads device timing, so pass 1 replays the whole epoch in
        scalar order against the live state: the rare gated installs
        carry their page movement as ``POST_BULK`` rows of the op
        table.  The statistics the replay owns (fills, evictions,
        rejections, overfetch, movement byte totals) are bumped here.
        """
        from ..sim.vectorized import POST_BULK, EpochPlan
        sets = self._sets
        hbm_cap = self._hbm_capacity
        dram_cap = self._dram_capacity
        page = addr // PAGE_BYTES
        set_l = (page % sets).tolist()
        tag_l = (page // sets).tolist()
        off_l = (addr % PAGE_BYTES).tolist()
        dram_l = (addr % dram_cap).tolist()
        wr_l = np.asarray(is_write, dtype=bool).tolist()
        m = len(set_l)
        ways_all = self._ways
        cand = self._candidate_counters
        tick = self._sample_tick
        cap = self.COUNTER_MAX
        margin = self.REPLACE_MARGIN
        rate = self.SAMPLE_RATE
        use = [True] * m
        local = [0] * m
        ops: list[int] = []
        emit = ops.extend
        fills = evictions = rejected = writebacks = overfetch = 0
        for i, (s, tg, off, da, wr) in enumerate(zip(
                set_l, tag_l, off_l, dram_l, wr_l)):
            ways = ways_all[s]
            hit_way = -1
            for wi in range(WAYS):
                if ways[wi].tag == tg:
                    hit_way = wi
                    break
            if hit_way >= 0:
                w = ways[hit_way]
                c = w.counter + 1
                w.counter = c if c < cap else cap
                w.used_lines |= 1 << (off // LINE_BYTES)
                if wr:
                    w.dirty = True
                local[i] = ((s * WAYS + hit_way) * PAGE_BYTES
                            + off) % hbm_cap
                continue
            use[i] = False
            local[i] = da
            tick += 1
            if tick % rate:
                continue
            pg = tg * sets + s
            counter = cand.get(pg, 0) + 1
            cand[pg] = counter if counter < cap else cap
            target = -1
            for wi in range(WAYS):
                if ways[wi].tag < 0:
                    target = wi
                    break
            if target < 0:
                victim = 0
                best = ways[0].counter
                for wi in range(1, WAYS):
                    c = ways[wi].counter
                    if c < best:
                        best = c
                        victim = wi
                if counter >= best + margin:
                    target = victim
                else:
                    rejected += 1
                    continue
            w = ways[target]
            if w.tag >= 0:
                old_pg = w.tag * sets + s
                if w.dirty:
                    emit((i, POST_BULK, 0, ((s * WAYS + target) * PAGE_BYTES)
                          % hbm_cap, PAGE_BYTES, 0,
                          i, POST_BULK, 1, (old_pg * PAGE_BYTES) % dram_cap,
                          PAGE_BYTES, 1))
                    writebacks += 1
                unused = ((PAGE_BYTES // LINE_BYTES)
                          - w.used_lines.bit_count())
                if unused > 0:
                    overfetch += unused * LINE_BYTES
                cand[old_pg] = w.counter // 2
                evictions += 1
            emit((i, POST_BULK, 1, (pg * PAGE_BYTES) % dram_cap,
                  PAGE_BYTES, 0,
                  i, POST_BULK, 0, ((s * WAYS + target) * PAGE_BYTES)
                  % hbm_cap, PAGE_BYTES, 1))
            w.tag = tg
            w.counter = counter
            w.dirty = wr
            w.used_lines = 1 << (off // LINE_BYTES)
            cand.pop(pg, None)
            fills += 1
        self._sample_tick = tick
        bump = self.stats.bump
        if fills:
            bump("page_fills", fills)
            bump("fetch_bytes", fills * PAGE_BYTES)
            bump("fetched_bytes", fills * PAGE_BYTES)
        if evictions:
            bump("page_evictions", evictions)
        if writebacks:
            bump("writeback_bytes", writebacks * PAGE_BYTES)
        if rejected:
            bump("replacement_rejected", rejected)
        if overfetch:
            bump("overfetch_bytes", overfetch)
        return EpochPlan(use_hbm=np.asarray(use, dtype=bool),
                         local_addr=np.asarray(local, dtype=np.int64),
                         ops=ops)


    def reset_measurements(self) -> None:
        super().reset_measurements()
        full = (1 << (PAGE_BYTES // LINE_BYTES)) - 1
        for ways in self._ways:
            for way in ways:
                if way.tag >= 0:
                    way.used_lines = full

    def metadata_bytes(self) -> int:
        """Mapping + counters: 4B per HBM page slot plus sampled candidate
        counters folded into the page-table walk (not separately stored)."""
        return self._sets * WAYS * 4

    def metadata_in_sram(self) -> bool:
        return True

    def os_visible_bytes(self) -> int:
        """The stack is a cache (or absent): the OS sees only DRAM."""
        return self.dram.capacity_bytes


@register_design(
    "Banshee",
    description="Page-granular TLB-tracked cache with "
                "frequency-based replacement",
    figures=(("fig8", 0),))
def _build_banshee(hbm_config, dram_config, *, name="Banshee"):
    return BansheeController(hbm_config, dram_config, name=name)
