"""SRAM metadata-cache model shared by metadata-heavy baselines.

Hybrid2, Chameleon, and the Meta-H ablation keep more metadata than fits
the 512KB on-chip SRAM budget (§II-B, §IV-A): the hot entries live in an
SRAM cache and the rest in HBM.  Every metadata lookup that misses SRAM
adds one HBM round trip of metadata-access latency (MAL) on the critical
path — the overhead Bumblebee eliminates by shrinking metadata below the
SRAM budget.
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError:                                   # pragma: no cover
    np = None


class MetadataCache:
    """An SRAM cache of metadata entries, indexed by entry number.

    Args:
        sram_bytes: SRAM capacity devoted to metadata (512KB budget).
        entry_bytes: Size of one metadata entry.
        total_entries: Number of entries in the full (HBM-resident) table.
            When the whole table fits in SRAM, every lookup hits.
    """

    def __init__(self, sram_bytes: int, entry_bytes: int,
                 total_entries: int) -> None:
        if entry_bytes <= 0:
            raise ValueError("entry_bytes must be positive")
        self.sram_bytes = sram_bytes
        self.entry_bytes = entry_bytes
        self.total_entries = total_entries
        self.total_bytes = entry_bytes * total_entries
        self._always_hits = self.total_bytes <= sram_bytes
        if self._always_hits:
            self._sets: list[list[int]] | None = None
            self._nsets = 0
        else:
            # Entries are cached in 64B sectors (8 entries per sector at
            # 8B/entry), 8-way associative with LRU replacement — a
            # generous organisation that still misses when the working
            # set of entries exceeds SRAM.  Each set is a recency-ordered
            # tag list (front = MRU), which is observably identical to a
            # rank-array LRU: hit iff the tag is present, hits move to
            # front, a full set evicts the back.
            line_bytes = 64
            capacity = max(line_bytes * 8, (sram_bytes // line_bytes)
                           * line_bytes)
            lines = capacity // line_bytes
            if lines % 8:
                raise ValueError("lines must divide evenly into ways")
            self._line_bytes = line_bytes
            self._ways = 8
            self._nsets = lines // 8
            self._sets = [[] for _ in range(self._nsets)]
        self.lookups = 0
        self.sram_misses = 0

    @property
    def fits_sram(self) -> bool:
        return self._always_hits

    def lookup(self, entry_index: int) -> bool:
        """Touch one metadata entry; True when it was SRAM-resident."""
        self.lookups += 1
        if self._always_hits:
            return True
        if self._touch((entry_index * self.entry_bytes) // self._line_bytes):
            return True
        self.sram_misses += 1
        return False

    def lookup_many(self, entries):
        """:meth:`lookup` of each entry of the int array ``entries``, in
        order; returns the bool array of which were SRAM-resident."""
        n = entries.shape[0]
        self.lookups += n
        if self._always_hits:
            return np.ones(n, dtype=bool)
        touch = self._touch
        resident = np.array([touch(line) for line in (
            (entries * self.entry_bytes) // self._line_bytes).tolist()],
            dtype=bool)
        self.sram_misses += n - int(resident.sum())
        return resident

    def _touch(self, line: int) -> bool:
        """Make ``line`` its set's most recent; True when it was cached."""
        tags = self._sets[line % self._nsets]
        tag = line // self._nsets
        if tag in tags:
            if tags[0] != tag:
                tags.remove(tag)
                tags.insert(0, tag)
            return True
        if len(tags) >= self._ways:
            tags.pop()
        tags.insert(0, tag)
        return False

    @property
    def miss_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.sram_misses / self.lookups
