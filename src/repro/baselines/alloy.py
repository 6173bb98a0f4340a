"""Alloy Cache (Qureshi & Loh, MICRO 2012) — block-based cHBM baseline.

Alloy organises the entire HBM as a *direct-mapped* cache of 64B lines in
TAD (tag-and-data) units: the 8B tag is burst out together with the 64B
data, so a hit needs exactly one HBM access and no separate metadata
lookup.  The cost is capacity — tags consume 1/9 of the stack (the paper
quotes 12.5%) — and the total absence of spatial prefetching: workloads
with strong spatial and weak temporal locality stream straight through it.

A memory-access predictor (MAP) decides whether to probe the cache
serially (predicted hit) or to go to DRAM in parallel (predicted miss);
the original uses an instruction-based MAP-I, which is modelled here as a
global saturating-counter hit predictor with equivalent behaviour at the
miss-stream level.
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError:                                   # pragma: no cover
    np = None

from ..designs import register_design
from ..mem.timing import DeviceConfig
from ..sim.request import AccessResult, MemoryRequest, ServicedBy
from .base import HybridMemoryController

TAD_TAG_BYTES = 8
LINE_BYTES = 64


class _HitPredictor:
    """3-bit saturating counter standing in for Alloy's MAP-I."""

    def __init__(self) -> None:
        self._counter = 4
        self.predictions = 0
        self.mispredictions = 0

    def predict_hit(self) -> bool:
        self.predictions += 1
        return self._counter >= 4

    def update(self, hit: bool) -> None:
        predicted = self._counter >= 4
        if predicted != hit:
            self.mispredictions += 1
        self._counter = min(7, self._counter + 1) if hit else max(
            0, self._counter - 1)


class AlloyCacheController(HybridMemoryController):
    """Direct-mapped TAD cache over the whole HBM stack."""

    def __init__(self, hbm_config: DeviceConfig, dram_config: DeviceConfig,
                 name: str = "AlloyCache") -> None:
        super().__init__(hbm_config, dram_config, name=name)
        # Tags live inline: each 72B TAD holds one 64B line.
        self._slots = self.hbm.capacity_bytes // (LINE_BYTES + TAD_TAG_BYTES)
        self._tags = [-1] * self._slots
        self._dirty = [False] * self._slots
        self._predictor = _HitPredictor()

    def _locate(self, addr: int) -> tuple[int, int, int]:
        line = addr // LINE_BYTES
        slot = line % self._slots
        tag = line // self._slots
        hbm_addr = (slot * (LINE_BYTES + TAD_TAG_BYTES)) % \
            self.hbm.capacity_bytes
        return slot, tag, hbm_addr

    def access(self, request: MemoryRequest, now_ns: float) -> AccessResult:
        slot, tag, hbm_addr = self._locate(request.addr)
        hit = self._tags[slot] == tag
        predict_hit = self._predictor.predict_hit()
        self._predictor.update(hit)
        if hit:
            # One TAD access returns tag+data together.
            result = self._demand_hbm(hbm_addr, request, now_ns)
            if request.is_write:
                self._dirty[slot] = True
            return result
        # Miss path: serial probe when a hit was predicted (pay the HBM
        # round trip first), parallel DRAM access otherwise.
        probe_ns = 0.0
        if predict_hit:
            probe_ns = self.hbm.access(hbm_addr, LINE_BYTES, False,
                                       now_ns) - now_ns
        result = self._demand_dram(request.addr, request,
                                   now_ns + probe_ns)
        self._fill(slot, tag, hbm_addr, request, now_ns)
        return AccessResult(
            latency_ns=probe_ns + result.latency_ns,
            serviced_by=ServicedBy.DRAM,
            metadata_ns=probe_ns,
            hbm_hit=False,
        )

    def _fill(self, slot: int, tag: int, hbm_addr: int,
              request: MemoryRequest, now_ns: float) -> None:
        """Install the missed line, writing back a dirty victim."""
        if self._tags[slot] >= 0:
            if self._dirty[slot]:
                victim_line = self._tags[slot] * self._slots + slot
                self.mover.writeback_to_dram(
                    hbm_addr, (victim_line * LINE_BYTES)
                    % self.dram.capacity_bytes, LINE_BYTES, now_ns)
            # A clean victim is silently dropped, but the fetched line it
            # displaced was brought in and possibly never reused; the
            # used-tracking below handles over-fetch at fill granularity.
        self.mover.fetch_to_hbm(request.addr % self.dram.capacity_bytes,
                                hbm_addr, LINE_BYTES, now_ns)
        self._tags[slot] = tag
        self._dirty[slot] = request.is_write

    # ------------------------------------------------------------------
    # two-pass epoch replay protocol (repro.sim.vectorized.replay_epoch)
    # ------------------------------------------------------------------

    def batch_epoch_plan(self, addr, is_write):
        """Pass 1: forward-replay the epoch's metadata, emit a script.

        Alloy's state machine — tags, dirty bits, and the MAP-I
        saturating counter — never reads device timing, so pass 1 can
        replay the whole epoch in scalar order against the *live* state
        and hand the walk a static device script: predicted-hit misses
        carry a serial TAD probe (``pre``) and every miss carries its
        writeback/fetch movement (``post``).  The statistics the replay
        owns (predictor counts, movement byte totals) are bumped here.
        """
        from ..sim.vectorized import EpochPlan
        slots = self._slots
        line = addr // LINE_BYTES
        slot_arr = line % slots
        tag_arr = line // slots
        hbm_cap = self._hbm_capacity
        dram_cap = self._dram_capacity
        slot_l = slot_arr.tolist()
        tag_l = tag_arr.tolist()
        hbm_l = ((slot_arr * (LINE_BYTES + TAD_TAG_BYTES))
                 % hbm_cap).tolist()
        dram_l = (addr % dram_cap).tolist()
        wr_l = np.asarray(is_write, dtype=bool).tolist()
        m = len(slot_l)
        tags = self._tags
        dirty = self._dirty
        predictor = self._predictor
        counter = predictor._counter
        mispredicts = 0
        fills = 0
        writebacks = 0
        use = [True] * m
        local = hbm_l[:]
        pre: dict[int, list] = {}
        post: dict[int, list] = {}
        for i, (slot, tg, haddr, da, wr) in enumerate(zip(
                slot_l, tag_l, hbm_l, dram_l, wr_l)):
            hit = tags[slot] == tg
            predicted = counter >= 4
            if predicted != hit:
                mispredicts += 1
            if hit:
                if counter < 7:
                    counter += 1
                if wr:
                    dirty[slot] = True
                continue
            if counter > 0:
                counter -= 1
            use[i] = False
            local[i] = da
            if predicted:
                # Serial probe: the predicted hit pays the HBM round
                # trip before going to DRAM.
                pre[i] = [(0, haddr, LINE_BYTES, False)]
            victim = tags[slot]
            if victim >= 0 and dirty[slot]:
                victim_line = victim * slots + slot
                post[i] = [
                    (0, haddr, LINE_BYTES, False),
                    (1, (victim_line * LINE_BYTES) % dram_cap,
                     LINE_BYTES, True),
                    (1, da, LINE_BYTES, False),
                    (0, haddr, LINE_BYTES, True),
                ]
                writebacks += 1
            else:
                post[i] = [
                    (1, da, LINE_BYTES, False),
                    (0, haddr, LINE_BYTES, True),
                ]
            fills += 1
            tags[slot] = tg
            dirty[slot] = wr
        predictor._counter = counter
        predictor.predictions += m
        predictor.mispredictions += mispredicts
        if fills:
            bump = self.stats.bump
            bump("fetch_bytes", fills * LINE_BYTES)
            bump("fetched_bytes", fills * LINE_BYTES)
            if writebacks:
                bump("writeback_bytes", writebacks * LINE_BYTES)
        plan = EpochPlan(use_hbm=np.asarray(use, dtype=bool),
                         local_addr=np.asarray(local, dtype=np.int64))
        plan.pre = pre
        plan.post = post
        return plan

    def metadata_bytes(self) -> int:
        """Tag store size (held in HBM, not SRAM)."""
        return self._slots * TAD_TAG_BYTES

    def metadata_in_sram(self) -> bool:
        return False  # tags are embedded in the HBM array

    @property
    def predictor_miss_rate(self) -> float:
        if self._predictor.predictions == 0:
            return 0.0
        return self._predictor.mispredictions / self._predictor.predictions

    def os_visible_bytes(self) -> int:
        """The stack is a cache (or absent): the OS sees only DRAM."""
        return self.dram.capacity_bytes


@register_design(
    "AlloyCache",
    description="Direct-mapped TAD cache over the whole stack "
                "(tags in HBM, MAP-I hit prediction)",
    figures=(("fig8", 1),))
def _build_alloy(hbm_config, dram_config, *, name="AlloyCache"):
    return AlloyCacheController(hbm_config, dram_config, name=name)
