"""Chameleon (Kotra et al., MICRO 2018) — POM baseline with one HBM
sector per remapping set.

Chameleon exposes the stacked memory as OS-visible capacity and migrates
data by *swapping* segments between near and far memory inside small
remapping groups — each group holding exactly one HBM segment (the
restriction the Bumblebee paper calls out: uneven HBM utilisation across
groups and frequent sector ping-pong).  Its remap metadata lives in memory
with only an SRAM cache in front, so lookups that miss SRAM pay an HBM
round trip of metadata-access latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

try:
    import numpy as np
except ImportError:                                   # pragma: no cover
    np = None

from ..designs import register_design
from ..mem.timing import DeviceConfig
from ..sim.request import AccessResult, MemoryRequest, ServicedBy
from .base import HybridMemoryController
from .metacache import MetadataCache

SEGMENT_BYTES = 2048


@dataclass
class _Group:
    """One remapping group: which member currently owns the HBM segment.

    ``near_member`` is the index (0..members-1) of the segment mapped to
    the group's single HBM slot; ``counters`` hold the swap-competition
    counters of the far members.
    """

    near_member: int = 0
    counters: list[int] = field(default_factory=list)


class ChameleonController(HybridMemoryController):
    """Swap-based POM with per-group competition counters."""

    #: A far segment must accumulate this many accesses beyond the near
    #: segment's recent use before a swap fires.
    SWAP_THRESHOLD = 4
    COUNTER_MAX = 63

    def __init__(self, hbm_config: DeviceConfig, dram_config: DeviceConfig,
                 sram_bytes: int = 512 * 1024,
                 name: str = "Chameleon") -> None:
        super().__init__(hbm_config, dram_config, name=name)
        hbm_segments = self.hbm.capacity_bytes // SEGMENT_BYTES
        dram_segments = self.dram.capacity_bytes // SEGMENT_BYTES
        self._groups_count = hbm_segments
        # members per group: 1 near + ratio far segments
        self._far_members = max(1, dram_segments // hbm_segments)
        self._members = 1 + self._far_members
        self._groups: dict[int, _Group] = {}
        self._metadata = MetadataCache(
            sram_bytes=sram_bytes, entry_bytes=2,
            total_entries=self._groups_count * self._members)
        self._near_hits_since_swap: dict[int, int] = {}

    def _group_state(self, group: int) -> _Group:
        state = self._groups.get(group)
        if state is None:
            state = _Group(near_member=0,
                           counters=[0] * self._members)
            self._groups[group] = state
        return state

    def _locate(self, addr: int) -> tuple[int, int, int]:
        segment = addr // SEGMENT_BYTES
        return (segment % self._groups_count,
                segment // self._groups_count % self._members,
                addr % SEGMENT_BYTES)

    def access(self, request: MemoryRequest, now_ns: float) -> AccessResult:
        group, member, offset = self._locate(request.addr)
        metadata_ns = 0.0
        if not self._metadata.lookup(group):
            metadata_ns = self._metadata_access_ns(now_ns)
        state = self._group_state(group)
        if member == state.near_member:
            hbm_addr = (group * SEGMENT_BYTES + offset) % \
                self.hbm.capacity_bytes
            state.counters[member] = min(self.COUNTER_MAX,
                                         state.counters[member] + 1)
            return self._demand_hbm(hbm_addr, request, now_ns, metadata_ns)
        result = self._demand_dram(request.addr, request, now_ns,
                                   metadata_ns)
        self._consider_swap(group, member, now_ns)
        return result

    def _consider_swap(self, group: int, member: int,
                       now_ns: float) -> None:
        """Competition counters: a persistently hotter far segment swaps in."""
        state = self._group_state(group)
        state.counters[member] = min(self.COUNTER_MAX,
                                     state.counters[member] + 1)
        near = state.near_member
        if state.counters[member] < (state.counters[near]
                                     + self.SWAP_THRESHOLD):
            return
        hbm_addr = (group * SEGMENT_BYTES) % self.hbm.capacity_bytes
        dram_addr = ((member * self._groups_count + group) * SEGMENT_BYTES
                     ) % self.dram.capacity_bytes
        self.mover.swap(hbm_addr, dram_addr, SEGMENT_BYTES, now_ns)
        state.near_member = member
        # Swapping resets the competition: both contestants restart.
        state.counters[near] = 0
        state.counters[member] = 0
        self.stats.bump("sector_swaps")

    # ------------------------------------------------------------------
    # two-pass epoch replay protocol (repro.sim.vectorized.replay_epoch)
    # ------------------------------------------------------------------

    def batch_epoch_plan(self, addr, is_write):
        """Pass 1: forward-replay the epoch's metadata, emit an op table.

        Chameleon's remap state (near member, competition counters) and
        its SRAM metadata cache are address-only deterministic — no
        decision ever reads device timing — so pass 1 replays the whole
        epoch in scalar order against the live state.  Its SRAM
        lookups depend on the group sequence alone, so the real
        :class:`MetadataCache` resolves the whole epoch's in one
        :meth:`~MetadataCache.lookup_many` call.  Variable metadata
        latency rides in ``plan.meta``; the rare segment swaps carry
        their movement as ``POST_BULK`` rows of the op table.
        """
        from ..sim.vectorized import POST_BULK, EpochPlan
        groups_count = self._groups_count
        members = self._members
        hbm_cap = self._hbm_capacity
        dram_cap = self._dram_capacity
        segment = addr // SEGMENT_BYTES
        group = segment % groups_count
        m = addr.shape[0]
        groups = self._groups
        group_state = self._group_state
        cap = self.COUNTER_MAX
        threshold = self.SWAP_THRESHOLD
        mal = (self.hbm.config.timings.row_closed_ns
               + self.hbm.config.burst_ns(64))
        sram_hit = self._metadata.lookup_many(group)
        meta_misses = m - int(sram_hit.sum())
        use = [False] * m
        ops: list[int] = []
        emit = ops.extend
        swaps = 0
        for i, (g, member) in enumerate(zip(
                group.tolist(), (segment // groups_count % members).tolist())):
            state = groups.get(g)
            if state is None:
                state = group_state(g)
            counters = state.counters
            c = counters[member] + 1
            counters[member] = c if c < cap else cap
            near = state.near_member
            if member == near:
                use[i] = True
                continue
            if counters[member] < counters[near] + threshold:
                continue
            h = (g * SEGMENT_BYTES) % hbm_cap
            d = ((member * groups_count + g) * SEGMENT_BYTES) % dram_cap
            emit((i, POST_BULK, 0, h, SEGMENT_BYTES, 0,
                  i, POST_BULK, 1, d, SEGMENT_BYTES, 1,
                  i, POST_BULK, 1, d, SEGMENT_BYTES, 0,
                  i, POST_BULK, 0, h, SEGMENT_BYTES, 1))
            state.near_member = member
            counters[near] = 0
            counters[member] = 0
            swaps += 1
        bump = self.stats.bump
        if meta_misses:
            bump("metadata_accesses", meta_misses)
        if swaps:
            bump("swaps", swaps)        # MovementEngine.swap's counter
            bump("sector_swaps", swaps)
            bump("writeback_bytes", swaps * SEGMENT_BYTES)
            bump("fetch_bytes", swaps * SEGMENT_BYTES)
            bump("fetched_bytes", swaps * SEGMENT_BYTES)
        use = np.array(use, dtype=bool)
        local = np.where(use, (group * SEGMENT_BYTES + addr % SEGMENT_BYTES)
                         % hbm_cap, addr % dram_cap)
        return EpochPlan(use_hbm=use, local_addr=local,
                         meta=np.where(sram_hit, 0.0, mal).tolist(), ops=ops)

    def metadata_bytes(self) -> int:
        return self._metadata.total_bytes

    def metadata_in_sram(self) -> bool:
        return self._metadata.fits_sram


@register_design(
    "Chameleon",
    params={"sram_bytes": 512 * 1024},
    description="Segment-group POM with an SRAM metadata cache "
                "(sram_bytes budgets it)",
    figures=(("fig8", 3),))
def _build_chameleon(hbm_config, dram_config, *, name="Chameleon",
                     sram_bytes=512 * 1024):
    return ChameleonController(hbm_config, dram_config,
                               sram_bytes=sram_bytes, name=name)
