"""Block Location Entry (BLE) array — per-HBM-page block metadata.

One BLE exists per HBM physical page in a remapping set (Figure 3a).  It
holds the PLE of the page occupying (or cached into) the HBM page, a valid
bit vector, and a dirty bit vector:

* for a **cHBM** page the valid vector marks which blocks of the off-chip
  page are cached, and the dirty vector which need writeback;
* for an **mHBM** page the valid vector records which blocks have been
  *accessed*, feeding the spatial-locality estimate (Na/Nn).

Bit vectors are plain Python ints used as bitmasks, giving O(1) popcounts
through ``int.bit_count``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class WayMode(enum.Enum):
    """The role an HBM physical page currently plays."""

    FREE = "free"
    CHBM = "chbm"
    MHBM = "mhbm"


#: Guards of the legal BLE mode transitions (§III-E).  Every arc of the
#: mode graph is reachable, so what distinguishes a legal transition is
#: the entry state *at the moment the mode flips*: a way is always
#: claimed (owner bound) before it activates, blocks are only ever
#: cached into a freshly reset way, the cHBM->mHBM switch needs cached
#: blocks to promote, and a way returns to FREE only through reset()
#: (owner already released).  The checker in :mod:`repro.sanitize`
#: validates each observed flip against this table.
LEGAL_TRANSITION_GUARDS: dict[tuple[WayMode, WayMode], "object"] = {
    (WayMode.FREE, WayMode.MHBM):
        lambda e: e.owner >= 0 and e.valid == 0 and e.dirty == 0,
    (WayMode.FREE, WayMode.CHBM):
        lambda e: e.owner >= 0 and e.valid == 0 and e.dirty == 0,
    (WayMode.CHBM, WayMode.MHBM):
        lambda e: e.owner >= 0 and e.valid != 0,
    (WayMode.MHBM, WayMode.CHBM):
        lambda e: e.owner >= 0,
    (WayMode.CHBM, WayMode.FREE): lambda e: e.owner == -1,
    (WayMode.MHBM, WayMode.FREE): lambda e: e.owner == -1,
}


def check_mode_transition(entry: "BlockLocationEntry", old: WayMode,
                          new: WayMode) -> str | None:
    """Validate one observed mode flip against the legal state machine.

    Returns:
        None for a legal transition, else a description of the breach.
        Same-mode reassignment is always legal (idempotent writes).
    """
    if old is new:
        return None
    guard = LEGAL_TRANSITION_GUARDS.get((old, new))
    if guard is None:
        return f"illegal BLE transition {old.value} -> {new.value}"
    if not guard(entry):
        return (f"BLE transition {old.value} -> {new.value} with "
                f"inconsistent entry state (owner={entry.owner}, "
                f"valid={entry.valid:#x}, dirty={entry.dirty:#x})")
    return None


@dataclass
class BlockLocationEntry:
    """Metadata of one HBM physical page (one way of a remapping set).

    Attributes:
        owner: Original intra-set page index whose data lives here
            (-1 when free).  For cHBM this is the off-chip page being
            cached; for mHBM it is the resident page itself.
        mode: Current role of the way.
        valid: Bitmask — cached blocks (cHBM) or accessed blocks (mHBM).
        dirty: Bitmask of blocks needing writeback (cHBM only).
        brought: *64B-line*-granularity bitmask of data moved into HBM by
            the data-movement engine since the way was (re)filled — the
            over-fetch numerator is measured at line granularity so large
            blocks/pages are charged for the unused lines inside them
            (§IV-B's "percentage of data brought in HBM but unused").
        used: 64B-line bitmask of data demand-accessed since the fill.
    """

    owner: int = -1
    mode: WayMode = WayMode.FREE
    valid: int = 0
    dirty: int = 0
    brought: int = 0
    used: int = 0

    def reset(self) -> None:
        """Return the way to the free state."""
        self.owner = -1
        self.mode = WayMode.FREE
        self.valid = 0
        self.dirty = 0
        self.brought = 0
        self.used = 0

    # ---- block-mask helpers -------------------------------------------

    def block_valid(self, block: int) -> bool:
        return bool(self.valid >> block & 1)

    def mark_valid(self, block: int) -> None:
        self.valid |= 1 << block

    def mark_dirty(self, block: int) -> None:
        self.dirty |= 1 << block

    def mark_brought_lines(self, mask: int) -> None:
        """Record 64B lines moved into HBM (mask at line granularity)."""
        self.brought |= mask

    def mark_used_line(self, line: int) -> None:
        """Record one demand-accessed 64B line."""
        self.used |= 1 << line

    def valid_count(self) -> int:
        return self.valid.bit_count()

    def dirty_count(self) -> int:
        return self.dirty.bit_count()

    def unused_brought_lines(self) -> int:
        """64B lines moved into HBM that no demand access touched."""
        return (self.brought & ~self.used).bit_count()

    def missing_blocks(self, blocks_per_page: int) -> int:
        """Number of blocks of the page *not* yet present in HBM."""
        full = (1 << blocks_per_page) - 1
        return (full & ~self.valid).bit_count()


class BLEArray:
    """The per-set array of :class:`BlockLocationEntry` (n ways)."""

    def __init__(self, ways: int, blocks_per_page: int) -> None:
        self._entries = [BlockLocationEntry() for _ in range(ways)]
        self.blocks_per_page = blocks_per_page

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, way: int) -> BlockLocationEntry:
        return self._entries[way]

    def __iter__(self):
        return iter(self._entries)

    def find_owner(self, owner: int) -> int | None:
        """Way index whose entry belongs to ``owner``, or None."""
        for way, entry in enumerate(self._entries):
            if entry.owner == owner and entry.mode is not WayMode.FREE:
                return way
        return None

    def find_free(self, allowed: range | None = None) -> int | None:
        """First free way, optionally restricted to ``allowed`` ways."""
        ways = allowed if allowed is not None else range(len(self._entries))
        for way in ways:
            if self._entries[way].mode is WayMode.FREE:
                return way
        return None

    def count_mode(self, mode: WayMode) -> int:
        return sum(1 for e in self._entries if e.mode is mode)

    def epoch_snapshot(self):
        """Frozen per-way arrays of this set's BLE state (pass-1 input).

        See :func:`epoch_snapshot` for the whole-geometry form the
        two-pass replay engine consumes.
        """
        return epoch_snapshot([self._entries])

    def way_counts(self, most_blocks_threshold: int
                   ) -> tuple[int, int, int, int]:
        """Return (Na, Nn, Nc, free ways) of the set in one pass (§III-E).

        Na: mHBM ways with >= threshold accessed blocks (strong spatial).
        Nn: mHBM ways with more than one accessed block but fewer
            than threshold.
        Nc: cHBM ways.
        The free-way count gives the occupied ratio Rh = 1 - free/ways.
        """
        mhbm = WayMode.MHBM
        chbm = WayMode.CHBM
        na = nn = nc = free = 0
        for entry in self._entries:
            mode = entry.mode
            if mode is mhbm:
                count = entry.valid.bit_count()
                if count >= most_blocks_threshold:
                    na += 1
                elif count > 1:
                    # Pages with at most one accessed block carry no
                    # locality evidence yet (freshly allocated or barely
                    # touched); counting them as weak-spatial would bias
                    # every warm-up toward block caching.
                    nn += 1
            elif mode is chbm:
                nc += 1
            else:
                free += 1
        return na, nn, nc, free


def epoch_snapshot(entry_rows, *, with_counts: bool = False):
    """Numpy mirror of BLE state frozen for one epoch classification.

    Args:
        entry_rows: One sequence of :class:`BlockLocationEntry` per
            remapping set (``ways`` entries each) — e.g. the per-set
            ``BLEArray._entries`` lists.
        with_counts: Also materialise per-way valid popcounts (needed
            by adaptive designs whose block hits can trip the
            cHBM->mHBM switch threshold).

    Returns:
        ``(owner, live, cached, valid, counts)`` arrays of shape
        ``(sets, ways)``: owner PLEs (int64), occupied mask, cHBM-mode
        mask, valid bitmasks (uint64 — callers must guard
        ``blocks_per_page <= 64``), and popcounts (int64, or None
        without ``with_counts``).  The arrays are value copies: later
        entry mutations never leak into a frozen plan.
    """
    free = WayMode.FREE
    cmode = WayMode.CHBM
    owner = np.array([[e.owner for e in row] for row in entry_rows],
                     dtype=np.int64)
    live = np.array([[e.mode is not free for e in row]
                     for row in entry_rows], dtype=bool)
    cached = np.array([[e.mode is cmode for e in row]
                       for row in entry_rows], dtype=bool)
    valid = np.array([[e.valid for e in row] for row in entry_rows],
                     dtype=np.uint64)
    counts = None
    if with_counts:
        counts = np.array([[e.valid.bit_count() for e in row]
                           for row in entry_rows], dtype=np.int64)
    return owner, live, cached, valid, counts
