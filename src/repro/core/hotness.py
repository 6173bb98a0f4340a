"""The hotness tracker: per-set hot table plus decision parameters (§III-B).

Each remapping set owns two LRU queues of ``(page, counter)`` entries
(Figure 4): one covering every page currently in HBM (mHBM-resident or
cHBM-cached) and one covering the most recently accessed off-chip pages
(8 entries in the paper).  Counters saturate at ``counter_max`` and record
access numbers until the entry is popped.

The tracker also derives the five §III-B parameters on demand: the HBM
occupied ratio Rh comes from the BLE array, the hotness threshold T is the
smallest counter among HBM pages in the set (§IV-A), and Nc/Na/Nn come from
the BLE spatial counts.  Zombie detection (§III-E, movement trigger 3)
watches the LRU head of the HBM queue for prolonged stasis.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class HotQueue:
    """A bounded LRU queue of page access counters.

    The *LRU head* is the coldest-position entry (next to pop); newly
    pushed or touched entries move to the MRU tail.
    """

    __slots__ = ("_entries", "capacity")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[int, int] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    def counter(self, page: int) -> int:
        """Access counter of ``page`` (0 when absent)."""
        return self._entries.get(page, 0)

    def touch(self, page: int, counter_max: int) -> bool:
        """Record an access; True when the page was present."""
        if page not in self._entries:
            return False
        self._entries[page] = min(counter_max, self._entries[page] + 1)
        self._entries.move_to_end(page)
        return True

    def push(self, page: int, counter: int = 1
             ) -> Optional[tuple[int, int]]:
        """Insert (or refresh) ``page`` at MRU with ``counter``.

        Returns:
            The popped LRU ``(page, counter)`` when the insert overflowed
            the queue, else None.
        """
        if page in self._entries:
            self._entries[page] = max(self._entries[page], counter)
            self._entries.move_to_end(page)
            return None
        evicted = None
        if len(self._entries) >= self.capacity:
            evicted = self._entries.popitem(last=False)
        self._entries[page] = counter
        return evicted

    def remove(self, page: int) -> int:
        """Drop ``page``; returns its counter (0 when absent)."""
        return self._entries.pop(page, 0)

    def lru_head(self) -> Optional[tuple[int, int]]:
        """The coldest-position entry, or None when empty."""
        if not self._entries:
            return None
        page = next(iter(self._entries))
        return page, self._entries[page]

    def min_counter(self) -> int:
        """Smallest counter in the queue (0 when empty)."""
        if not self._entries:
            return 0
        return min(self._entries.values())

    def pages(self) -> list[int]:
        return list(self._entries)


class HotnessTracker:
    """Per-set temporal-locality state and zombie watchdog."""

    __slots__ = ("hbm_queue", "dram_queue", "counter_max",
                 "_zombie_sample", "_zombie_streak")

    def __init__(self, hbm_entries: int, dram_entries: int,
                 counter_max: int = 255) -> None:
        self.hbm_queue = HotQueue(hbm_entries)
        self.dram_queue = HotQueue(dram_entries)
        self.counter_max = counter_max
        self._zombie_sample: Optional[tuple[int, int]] = None
        self._zombie_streak = 0

    # ---- access recording ----------------------------------------------

    def record_hbm_access(self, page: int) -> None:
        """An access hit a page currently in HBM (either mode)."""
        # Inlined HotQueue.touch (same dict ops, one call level less —
        # this runs once per HBM demand hit).
        queue = self.hbm_queue
        entries = queue._entries
        if page in entries:
            bumped = entries[page] + 1
            cap = self.counter_max
            entries[page] = bumped if bumped < cap else cap
            entries.move_to_end(page)
        else:
            # A page can be in HBM without a queue entry only transiently
            # (e.g. right after a swap); (re)adopt it.  The push cannot
            # overflow in steady state because queue capacity equals the
            # number of HBM ways.
            queue.push(page, 1)

    def record_dram_access(self, page: int) -> None:
        """An access went to an off-chip page not present in HBM."""
        queue = self.dram_queue
        entries = queue._entries
        if page in entries:
            bumped = entries[page] + 1
            cap = self.counter_max
            entries[page] = bumped if bumped < cap else cap
            entries.move_to_end(page)
        else:
            queue.push(page, 1)

    # ---- promotion / demotion --------------------------------------------

    def promote(self, page: int) -> Optional[tuple[int, int]]:
        """Move a page's entry into the HBM queue (page entering HBM).

        Returns:
            The LRU HBM entry popped by the insert — the paper's eviction
            trigger — or None when the queue had room.
        """
        counter = max(1, self.dram_queue.remove(page))
        return self.hbm_queue.push(page, counter)

    def demote(self, page: int) -> None:
        """Move a page's entry back to the DRAM queue (page left HBM)."""
        counter = self.hbm_queue.remove(page)
        if counter:
            self.dram_queue.push(page, counter)

    # ---- parameters -------------------------------------------------------

    def hotness(self, page: int) -> int:
        """The page's counter, wherever it is tracked (0 if untracked)."""
        return max(self.hbm_queue.counter(page),
                   self.dram_queue.counter(page))

    def threshold(self) -> int:
        """T — the smallest hotness among HBM pages in the set (§IV-A)."""
        return self.hbm_queue.min_counter()

    def age(self) -> None:
        """Halve every counter so T tracks *recent* hotness.

        Saturating counters would otherwise pin T at the cap and freeze
        the set (nothing can be "hotter than" a long-gone phase); the hot
        table's job is explicitly to "track data hotness changes"
        (§III-B), which requires old heat to decay.
        """
        for queue in (self.hbm_queue, self.dram_queue):
            for page in queue.pages():
                queue._entries[page] = max(1, queue._entries[page] // 2)

    # ---- zombie watchdog ---------------------------------------------------

    def observe_zombie(self, patience: int) -> Optional[int]:
        """Advance the watchdog; return a zombie page when one is detected.

        A zombie is declared when the HBM queue's LRU head — page *and*
        counter — survives ``patience`` consecutive observations: nothing
        else is pressuring it out, yet it is not being accessed.
        """
        head = self.hbm_queue.lru_head()
        if head is None:
            self._zombie_sample = None
            self._zombie_streak = 0
            return None
        if head == self._zombie_sample:
            self._zombie_streak += 1
            if self._zombie_streak >= patience:
                self._zombie_sample = None
                self._zombie_streak = 0
                return head[0]
        else:
            self._zombie_sample = head
            self._zombie_streak = 0
        return None
