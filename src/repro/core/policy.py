"""Pure decision functions for Bumblebee's data-movement logic (§III-E).

These helpers are side-effect free so they can be unit- and property-tested
in isolation; :class:`~repro.core.hmmc.BumblebeeController` supplies the
state and performs the movements they prescribe.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class MovementAction(enum.Enum):
    """What to do about an off-chip page that was just accessed."""

    MIGRATE = "migrate"       # bring the whole page into mHBM
    CACHE_BLOCK = "cache"     # fetch just the requested block into cHBM
    NONE = "none"             # leave the data off-chip


def spatial_locality(na: int, nn: int, nc: int) -> int:
    """SL = Na - Nn - Nc  (equation 1).

    Positive SL: the set's HBM pages mostly show strong spatial locality,
    so whole-page migration into mHBM pays off.  Non-positive SL: caching
    individual blocks limits over-fetch.
    """
    return na - nn - nc


class SetCondition(NamedTuple):
    """The hotness-tracker snapshot a movement decision is based on (a
    tuple: one is built per off-chip access that reaches §III-E)."""

    sl: int
    rh: float
    hotness: int
    threshold: int

    @property
    def rh_high(self) -> bool:
        """The paper defines Rh as high when it reaches 1 (§IV-A)."""
        return self.rh >= 1.0


def decide_dram_access(condition: SetCondition,
                       chbm_allowed: bool = True,
                       mhbm_allowed: bool = True,
                       allow_fallback: bool = False) -> MovementAction:
    """The §III-E "data movement triggered by memory access" rule (1).

    * SL>0, low Rh: migrate (strong spatial locality, room available).
    * SL>0, high Rh: migrate only when hotness exceeds T.
    * SL<=0, low Rh: cache the requested block.
    * SL<=0, high Rh: cache only when hotness exceeds T.

    ``chbm_allowed`` / ``mhbm_allowed`` let static partitions and the
    high-memory-footprint mode restrict the target.  With
    ``allow_fallback`` (the single-mechanism static designs: C-Only has
    only caching, M-Only only migration) a disallowed preferred action
    falls back to the other mechanism.  Adaptive Bumblebee never
    cross-falls-back: migrating a page the SL estimate marked
    weak-spatial would be exactly the over-fetch the design avoids.
    """
    passes_threshold = condition.hotness > condition.threshold
    if condition.rh_high and not passes_threshold:
        return MovementAction.NONE
    prefer_migrate = condition.sl > 0
    if prefer_migrate and mhbm_allowed:
        return MovementAction.MIGRATE
    if not prefer_migrate and chbm_allowed:
        return MovementAction.CACHE_BLOCK
    # Cross-mechanism fallback is hotness-gated at ANY occupancy: it only
    # exists to keep HBM useful when the preferred mechanism is
    # unavailable, never to admit single-touch data wholesale.
    if allow_fallback and passes_threshold:
        if mhbm_allowed:
            return MovementAction.MIGRATE
        if chbm_allowed:
            return MovementAction.CACHE_BLOCK
    return MovementAction.NONE


def should_switch_to_mhbm(valid_blocks: int, most_blocks_threshold: int,
                          adaptive: bool = True) -> bool:
    """§III-E rule (2): a cHBM page with most blocks cached becomes mHBM."""
    return adaptive and valid_blocks >= most_blocks_threshold


def should_swap(hotness: int, coldest_counter: int) -> bool:
    """§III-E HMF rule (4): in a fully OS-occupied set, a hot off-chip page
    displaces the coldest HBM page only when strictly hotter."""
    return hotness > coldest_counter
