"""Bumblebee configuration and remapping-set geometry.

The paper's best configuration (§IV-B) is 2KB blocks inside 64KB pages with
8-way-associative HBM management; the design space sweep of Figure 6 varies
``block_bytes`` in {1,2,4}KB and ``page_bytes`` in {64,96,128}KB.  Ablation
flags reproduce the Figure 7 factor breakdown without code duplication.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional

KIB = 1024


def check_int(name: str, value, minimum: int = 1) -> None:
    """Reject a size, count or tunable that is not an integer of at
    least ``minimum`` (1, or 0 where 0 means "off"), naming the field.

    Raises:
        ValueError: for a bool, a non-integer, or a value below
            ``minimum``.
    """
    sign = "positive" if minimum > 0 else "non-negative"
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a {sign} integer, got "
                         f"{value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be {sign}, got {value}")


def check_fraction(name: str, value, low_open: bool = False) -> None:
    """Reject a fraction that is not a real number in [0, 1] (or
    (0, 1] with ``low_open``), naming the field.

    Raises:
        ValueError: for a bool, a non-real value (a string from a
            ``--grid`` is one), NaN, or a value out of range.
    """
    bounds = "(0, 1]" if low_open else "[0, 1]"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number in {bounds}, "
                         f"got {value!r}")
    low_ok = value > 0.0 if low_open else value >= 0.0
    if not (low_ok and value <= 1.0):
        raise ValueError(f"{name} must be in {bounds}, got {value}")


class AllocationPolicy(enum.Enum):
    """Where a newly touched page is first placed (§III-D)."""

    HOTNESS = "hotness"   # Bumblebee's hotness-based remapping allocation
    DRAM = "dram"         # Alloc-D: everything starts off-chip
    HBM = "hbm"           # Alloc-H: fill HBM first

    @classmethod
    def parse(cls, value: "AllocationPolicy | str") -> "AllocationPolicy":
        """Coerce a policy, its value string, or the 'adaptive' alias.

        Design specs carry the policy as a JSON string; ``adaptive`` is
        accepted as a synonym for the hotness-based default.

        Raises:
            ValueError: for an unrecognised policy name.
        """
        if isinstance(value, cls):
            return value
        text = str(value).strip().lower()
        if text == "adaptive":
            return cls.HOTNESS
        try:
            return cls(text)
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown allocation policy {value!r}; valid: {valid}, "
                f"adaptive") from None


@dataclass(frozen=True)
class BumblebeeConfig:
    """All tunables of the Bumblebee controller.

    Attributes:
        page_bytes: mHBM migration granularity (and PRT page size).
        block_bytes: cHBM caching granularity.
        hbm_ways: HBM pages per remapping set (8-way in the paper).
        hot_queue_dram_entries: Tracked recently-accessed off-chip pages
            per set (8 in the paper).
        most_blocks_fraction: "Most blocks accessed" threshold used both
            for the cHBM->mHBM switch and the Na/Nn split.  0.4 by
            default: streams leave partially covered boundary pages, and
            a strict majority misclassifies them as weak-spatial (the
            ablation bench sweeps this knob; see DESIGN.md SS5).
        zombie_patience: Consecutive unchanged head observations before a
            page is declared a zombie and evicted.
        age_interval: Movement decisions per set between counter-aging
            passes (halving).  0 (default) disables aging; the zombie
            rule already handles stale heat.
        hmf_batch_sets: Sets whose cHBM is flushed per global
            high-memory-footprint trigger.
        hmf_cooldown_requests: Requests without a beyond-DRAM address
            before flushed sets may serve cHBM again (at least 1: the
            countdown that re-enables them starts from this value).
        multiplexed: False models separate cHBM/mHBM spaces (No-Multi):
            every mode switch then pays full data movement.
        hmf_enabled: False disables the §III-E high-memory-footprint
            movement rules (No-HMF).
        metadata_in_hbm: True places all metadata in HBM (Meta-H), adding
            a metadata round trip to every request.
        allocation: Page allocation policy (§III-D).
        fixed_chbm_ways: When set, statically partitions each set's HBM
            ways into that many cHBM-only ways and the rest mHBM-only
            (C-Only / M-Only / 25%-C / 50%-C in Figure 7).
        prefetch_blocks: Extension beyond the paper: on a demand block
            fill into cHBM, also fetch this many sequentially-next blocks
            of the same page (0 disables).  Trades fetch bandwidth for
            hit rate on streaming patterns the SL estimate has not yet
            promoted to mHBM; swept by the ablation benches.
    """

    page_bytes: int = 64 * KIB
    block_bytes: int = 2 * KIB
    hbm_ways: int = 8
    hot_queue_dram_entries: int = 8
    most_blocks_fraction: float = 0.4
    zombie_patience: int = 64
    age_interval: int = 0
    hmf_batch_sets: int = 16
    hmf_cooldown_requests: int = 4096
    multiplexed: bool = True
    hmf_enabled: bool = True
    metadata_in_hbm: bool = False
    allocation: AllocationPolicy = AllocationPolicy.HOTNESS
    fixed_chbm_ways: Optional[int] = None
    prefetch_blocks: int = 0
    counter_bits: int = 8

    def __post_init__(self) -> None:
        # Before any modulo: a zero size would divide by zero, and a
        # negative or non-integer one would turn into a bogus geometry
        # downstream.
        for name in ("page_bytes", "block_bytes", "hbm_ways"):
            check_int(name, getattr(self, name))
        if self.page_bytes % self.block_bytes != 0:
            raise ValueError("page size must be a multiple of block size")
        if self.block_bytes % 64 != 0:
            raise ValueError("block size must be a multiple of 64B lines")
        check_fraction("most_blocks_fraction", self.most_blocks_fraction,
                       low_open=True)
        if self.fixed_chbm_ways is not None:
            check_int("fixed_chbm_ways", self.fixed_chbm_ways, minimum=0)
            if self.fixed_chbm_ways > self.hbm_ways:
                raise ValueError("fixed_chbm_ways must be within hbm_ways")
        # Every field is a sweepable spec param: a counter width of 0
        # or a negative patience would otherwise run and return a
        # plausible number.
        for name in ("hot_queue_dram_entries", "zombie_patience",
                     "hmf_batch_sets", "hmf_cooldown_requests",
                     "counter_bits"):
            check_int(name, getattr(self, name))
        for name in ("age_interval", "prefetch_blocks"):
            check_int(name, getattr(self, name), minimum=0)

    @property
    def blocks_per_page(self) -> int:
        return self.page_bytes // self.block_bytes

    @property
    def most_blocks_threshold(self) -> int:
        """Block count at/above which "most blocks" is satisfied."""
        return max(1, math.ceil(self.blocks_per_page
                                * self.most_blocks_fraction))

    @property
    def counter_max(self) -> int:
        return (1 << self.counter_bits) - 1


@dataclass(frozen=True)
class SetGeometry:
    """Derived layout of the unified remapping sets (§III-B, Figure 3).

    With page size P, HBM capacity H, DRAM capacity D, and n HBM ways per
    set: ``sets = H / (P*n)`` and each set covers ``m = D / (P*sets)``
    off-chip pages.  Slots [0, m) are off-chip physical pages; slots
    [m, m+n) are HBM physical pages.  OS page index ``p`` maps to set
    ``p % sets`` with original intra-set index ``p // sets``.
    """

    sets: int
    dram_slots: int   # m
    hbm_ways: int     # n
    page_bytes: int

    @property
    def slots_per_set(self) -> int:
        return self.dram_slots + self.hbm_ways

    @property
    def os_pages(self) -> int:
        return self.sets * self.slots_per_set

    @property
    def os_bytes(self) -> int:
        return self.os_pages * self.page_bytes

    @property
    def ple_bits(self) -> int:
        """Width of one Page Location Entry: ceil(log2(m+n))."""
        return max(1, math.ceil(math.log2(self.slots_per_set)))

    def locate(self, addr: int) -> tuple[int, int]:
        """Map a flat OS address to (set_index, original_page_index)."""
        page = addr // self.page_bytes
        return page % self.sets, (page // self.sets) % self.slots_per_set

    def dram_page_addr(self, set_index: int, slot: int) -> int:
        """Device-local DRAM address of a DRAM slot's page."""
        if not 0 <= slot < self.dram_slots:
            raise ValueError(f"slot {slot} is not a DRAM slot")
        return (slot * self.sets + set_index) * self.page_bytes

    def hbm_page_addr(self, set_index: int, slot: int) -> int:
        """Device-local HBM address of an HBM slot's page."""
        if not self.dram_slots <= slot < self.slots_per_set:
            raise ValueError(f"slot {slot} is not an HBM slot")
        way = slot - self.dram_slots
        return (way * self.sets + set_index) * self.page_bytes

    def is_hbm_slot(self, slot: int) -> bool:
        return slot >= self.dram_slots


def derive_geometry(config: BumblebeeConfig, hbm_bytes: int,
                    dram_bytes: int) -> SetGeometry:
    """Compute the remapping-set geometry for the given capacities.

    Raises:
        ValueError: when the capacities do not tile into whole sets.
    """
    page = config.page_bytes
    hbm_pages = hbm_bytes // page
    if hbm_pages % config.hbm_ways != 0:
        raise ValueError("HBM pages must divide evenly into ways")
    sets = hbm_pages // config.hbm_ways
    dram_pages = dram_bytes // page
    if dram_pages % sets != 0:
        raise ValueError(
            f"DRAM pages ({dram_pages}) must divide across {sets} sets")
    return SetGeometry(sets=sets, dram_slots=dram_pages // sets,
                       hbm_ways=config.hbm_ways, page_bytes=page)
