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
        """Pass 1: Alloy's epoch as array arithmetic, with its op table.

        Alloy's state machine — tags, dirty bits, and the MAP-I
        saturating counter — never reads device timing, and the cache
        is direct-mapped and fills on every miss.  So request *i* hits
        iff the previous request to its slot carried the same tag, or,
        for a slot's first request of the epoch, the live tag does: a
        stable argsort by slot lines every request up with that
        previous tag.  The line a miss evicts is dirty iff a write
        reached it since its fill: a segmented OR over each run of
        same-tag requests, seeded from the live dirty bit for the run
        the epoch finds in place.  Only the counter stays a loop, over
        the epoch's hit flags.  Predicted-hit misses carry a serial TAD
        probe (a ``PROBE`` row) and every miss its writeback/fetch
        movement (``POST_BULK`` rows); the statistics the replay owns
        (predictor counts, movement byte totals) are bumped here.
        """
        from ..sim.vectorized import OP_WIDTH, POST_BULK, PROBE, EpochPlan
        slots = self._slots
        dram_cap = self._dram_capacity
        m = addr.shape[0]
        line = addr // LINE_BYTES
        slot = line % slots
        tag = line // slots
        hbm_addr = (slot * (LINE_BYTES + TAD_TAG_BYTES)) % self._hbm_capacity
        dram_addr = addr % dram_cap

        # The epoch grouped by slot, in request order within a slot.
        order = np.argsort(slot, kind="stable")
        slot_s = slot[order]
        tag_s = tag[order]
        first = np.ones(m, dtype=bool)
        first[1:] = slot_s[1:] != slot_s[:-1]
        last = np.append(first[1:], True)
        touched = slot_s[first].tolist()
        tags = self._tags
        dirty = self._dirty
        live_dirty = np.array([dirty[s] for s in touched], dtype=bool)
        prev_s = np.empty(m, dtype=np.int64)
        prev_s[1:] = tag_s[:-1]
        prev_s[first] = [tags[s] for s in touched]
        hit_s = prev_s == tag_s
        # A run starts at every fill and at each slot's first request;
        # the run a slot's first request hits continues the live line.
        starts = first | ~hit_s
        seed = np.zeros(m, dtype=bool)
        seed[first] = live_dirty & hit_s[first]
        wrote = (np.asarray(is_write, dtype=bool)[order] | seed).astype(
            np.int64)
        written = np.cumsum(wrote)
        run_base = (written - wrote)[starts]
        dirty_after = written > run_base[np.cumsum(starts) - 1]
        dirty_before = np.empty(m, dtype=bool)
        dirty_before[1:] = dirty_after[:-1]
        dirty_before[first] = live_dirty
        for s, t, d in zip(touched, tag_s[last].tolist(),
                           dirty_after[last].tolist()):
            tags[s] = t
            dirty[s] = d

        hit = np.empty(m, dtype=bool)
        hit[order] = hit_s
        victim = np.empty(m, dtype=np.int64)
        victim[order] = prev_s
        writeback = np.empty(m, dtype=bool)
        writeback[order] = ~hit_s & dirty_before & (prev_s >= 0)

        predictor = self._predictor
        counter = predictor._counter
        guesses: list[bool] = []
        guess = guesses.append
        for h in hit.tolist():
            guess(counter >= 4)
            if h:
                if counter < 7:
                    counter += 1
            elif counter > 0:
                counter -= 1
        predictor._counter = counter
        predicted = np.array(guesses, dtype=bool)
        predictor.predictions += m
        predictor.mispredictions += int((predicted != hit).sum())

        # Each miss's candidate rows: the serial probe (a predicted
        # hit pays the HBM round trip before going to DRAM), the dirty
        # victim's writeback, and the fill; the mask keeps the ones
        # the miss issues, in row-major (request, call) order.
        miss = np.flatnonzero(~hit)
        k = miss.shape[0]
        h = hbm_addr[miss]
        rows = np.empty((k, 5, OP_WIDTH), dtype=np.int64)
        rows[:, :, 0] = miss[:, None]
        rows[:, :, 1] = (PROBE,) + (POST_BULK,) * 4
        rows[:, :, 2] = (0, 0, 1, 1, 0)
        rows[:, :, 3] = np.stack((
            h, h, ((victim[miss] * slots + slot[miss]) * LINE_BYTES)
            % dram_cap, dram_addr[miss], h), axis=1)
        rows[:, :, 4] = LINE_BYTES
        rows[:, :, 5] = (0, 0, 1, 0, 1)
        keep = np.ones((k, 5), dtype=bool)
        keep[:, 0] = predicted[miss]
        keep[:, 1] = keep[:, 2] = writeback[miss]
        if k:
            bump = self.stats.bump
            bump("fetch_bytes", k * LINE_BYTES)
            bump("fetched_bytes", k * LINE_BYTES)
            writebacks = int(writeback.sum())
            if writebacks:
                bump("writeback_bytes", writebacks * LINE_BYTES)
        return EpochPlan(use_hbm=hit,
                         local_addr=np.where(hit, hbm_addr, dram_addr),
                         ops=rows[keep])

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
