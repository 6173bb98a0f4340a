"""Tests for the BLE array and the hotness tracker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BLEArray, BlockLocationEntry, HotnessTracker, WayMode
from repro.core.hotness import HotQueue


class TestBlockLocationEntry:
    def test_fresh_entry_is_free(self):
        entry = BlockLocationEntry()
        assert entry.mode is WayMode.FREE
        assert entry.owner == -1
        assert entry.valid_count() == 0

    def test_block_marks(self):
        entry = BlockLocationEntry()
        entry.mark_valid(3)
        entry.mark_dirty(3)
        assert entry.block_valid(3)
        assert not entry.block_valid(2)
        assert entry.valid_count() == 1
        assert entry.dirty_count() == 1

    def test_missing_blocks(self):
        entry = BlockLocationEntry()
        entry.mark_valid(0)
        entry.mark_valid(5)
        assert entry.missing_blocks(32) == 30

    def test_overfetch_lines(self):
        entry = BlockLocationEntry()
        entry.mark_brought_lines(0b1111)
        entry.mark_used_line(1)
        assert entry.unused_brought_lines() == 3

    def test_used_line_outside_brought_does_not_go_negative(self):
        entry = BlockLocationEntry()
        entry.mark_brought_lines(0b11)
        entry.mark_used_line(10)  # demand to a never-fetched line
        assert entry.unused_brought_lines() == 2

    def test_reset(self):
        entry = BlockLocationEntry(owner=4, mode=WayMode.MHBM, valid=7)
        entry.reset()
        assert entry.mode is WayMode.FREE
        assert entry.owner == -1
        assert entry.valid == 0


class TestBLEArray:
    def test_find_owner(self):
        array = BLEArray(ways=4, blocks_per_page=32)
        array[2].owner = 9
        array[2].mode = WayMode.CHBM
        assert array.find_owner(9) == 2
        assert array.find_owner(5) is None

    def test_free_entries_never_match_owner(self):
        array = BLEArray(ways=4, blocks_per_page=32)
        array[1].owner = 9  # free mode: stale owner must not match
        assert array.find_owner(9) is None

    def test_find_free_with_restriction(self):
        array = BLEArray(ways=4, blocks_per_page=32)
        array[0].mode = WayMode.MHBM
        array[1].mode = WayMode.CHBM
        assert array.find_free() == 2
        assert array.find_free(range(0, 2)) is None

    def test_occupancy(self):
        array = BLEArray(ways=4, blocks_per_page=32)
        assert array.way_counts(16)[3] == 4
        array[0].mode = WayMode.MHBM
        array[1].mode = WayMode.CHBM
        assert array.way_counts(16)[3] == 2

    def test_spatial_counts(self):
        array = BLEArray(ways=4, blocks_per_page=32)
        # Na: mHBM with >= 16 valid blocks
        array[0].mode = WayMode.MHBM
        array[0].valid = (1 << 20) - 1  # 20 blocks
        # Nn: mHBM below threshold
        array[1].mode = WayMode.MHBM
        array[1].valid = 0b11
        # Nc: cHBM
        array[2].mode = WayMode.CHBM
        assert array.way_counts(most_blocks_threshold=16) == (1, 1, 1, 1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_way_counts_match_two_pass_reference(self, data):
        """The one-pass counts equal the two walks they replaced: the
        (Na, Nn, Nc) spatial counts and the occupied ratio Rh."""
        ways = data.draw(st.integers(1, 8), label="ways")
        threshold = data.draw(st.integers(1, 32), label="threshold")
        modes = {"mixed": list(WayMode), "all-free": [WayMode.FREE],
                 "full": [WayMode.CHBM, WayMode.MHBM]}[
            data.draw(st.sampled_from(["mixed", "all-free", "full"]))]
        masks = st.one_of(
            st.just(0), st.integers(0, 31).map(lambda bit: 1 << bit),
            st.sampled_from([(1 << threshold) - 1,
                             (1 << (threshold - 1)) - 1]),
            st.integers(0, (1 << 32) - 1))
        array = BLEArray(ways=ways, blocks_per_page=32)
        for entry in array:
            entry.mode = data.draw(st.sampled_from(modes))
            entry.valid = data.draw(masks)
        na, nn, nc, free = array.way_counts(threshold)
        spatial, rh = _two_pass_counts(array, threshold)
        assert (na, nn, nc) == spatial
        assert (ways - free) / ways == rh
        assert (free == 0) == (rh >= 1.0)


def _two_pass_counts(array, threshold):
    """The removed ``BLEArray.spatial_counts`` and ``occupancy``, kept
    as the reference for ``way_counts``."""
    na = nn = nc = 0
    for entry in array:
        if entry.mode is WayMode.MHBM:
            count = entry.valid_count()
            if count >= threshold:
                na += 1
            elif count > 1:
                nn += 1
        elif entry.mode is WayMode.CHBM:
            nc += 1
    used = sum(1 for e in array if e.mode is not WayMode.FREE)
    return (na, nn, nc), used / len(array)


class TestHotQueue:
    def test_push_until_overflow(self):
        queue = HotQueue(capacity=2)
        assert queue.push(1) is None
        assert queue.push(2) is None
        popped = queue.push(3)
        assert popped == (1, 1)  # LRU entry out

    def test_touch_moves_to_mru(self):
        queue = HotQueue(capacity=2)
        queue.push(1)
        queue.push(2)
        queue.touch(1, counter_max=255)
        assert queue.push(3) == (2, 1)

    def test_counter_saturates(self):
        queue = HotQueue(capacity=1)
        queue.push(1)
        for _ in range(10):
            queue.touch(1, counter_max=3)
        assert queue.counter(1) == 3

    def test_push_existing_keeps_max_counter(self):
        queue = HotQueue(capacity=2)
        queue.push(1, counter=5)
        queue.push(1, counter=2)
        assert queue.counter(1) == 5

    def test_min_counter_and_head(self):
        queue = HotQueue(capacity=3)
        queue.push(1, counter=5)
        queue.push(2, counter=3)
        assert queue.min_counter() == 3
        assert queue.lru_head() == (1, 5)

    def test_remove(self):
        queue = HotQueue(capacity=2)
        queue.push(1, counter=7)
        assert queue.remove(1) == 7
        assert queue.remove(1) == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            HotQueue(capacity=0)


class TestHotnessTracker:
    def make(self):
        return HotnessTracker(hbm_entries=4, dram_entries=4, counter_max=255)

    def test_dram_access_tracked(self):
        tracker = self.make()
        tracker.record_dram_access(7)
        tracker.record_dram_access(7)
        assert tracker.hotness(7) == 2

    def test_promote_carries_counter(self):
        tracker = self.make()
        tracker.record_dram_access(7)
        tracker.record_dram_access(7)
        tracker.promote(7)
        assert tracker.hbm_queue.counter(7) == 2
        assert 7 not in tracker.dram_queue

    def test_demote_returns_entry_to_dram_queue(self):
        tracker = self.make()
        tracker.record_dram_access(7)
        tracker.promote(7)
        tracker.demote(7)
        assert 7 in tracker.dram_queue
        assert 7 not in tracker.hbm_queue

    def test_threshold_is_min_hbm_counter(self):
        tracker = self.make()
        for page, touches in ((1, 3), (2, 7)):
            for _ in range(touches):
                tracker.record_dram_access(page)
            tracker.promote(page)
        assert tracker.threshold() == 3

    def test_threshold_empty_queue_is_zero(self):
        assert self.make().threshold() == 0

    def test_zombie_detected_after_patience(self):
        tracker = self.make()
        tracker.record_dram_access(1)
        tracker.promote(1)
        tracker.record_dram_access(2)
        tracker.promote(2)
        zombie = None
        for _ in range(10):
            zombie = tracker.observe_zombie(patience=3)
            if zombie is not None:
                break
        assert zombie == 1  # the untouched LRU head

    def test_active_head_is_not_zombie(self):
        tracker = self.make()
        tracker.record_dram_access(1)
        tracker.promote(1)
        for _ in range(10):
            tracker.record_hbm_access(1)  # counter keeps changing
            assert tracker.observe_zombie(patience=2) is None

    def test_aging_halves_counters(self):
        tracker = self.make()
        for _ in range(8):
            tracker.record_dram_access(5)
        tracker.promote(5)
        tracker.age()
        assert tracker.hbm_queue.counter(5) == 4

    def test_aging_floors_at_one(self):
        tracker = self.make()
        tracker.record_dram_access(5)
        tracker.age()
        assert tracker.dram_queue.counter(5) == 1


class TestHotQueueProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 20), max_size=100))
    def test_capacity_never_exceeded(self, pages):
        queue = HotQueue(capacity=5)
        for page in pages:
            queue.push(page)
            assert len(queue) <= 5

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 10), min_size=1, max_size=60))
    def test_min_counter_consistent(self, pages):
        queue = HotQueue(capacity=4)
        for page in pages:
            if page in queue:
                queue.touch(page, counter_max=255)
            else:
                queue.push(page)
        assert queue.min_counter() == min(
            queue.counter(p) for p in queue.pages())
