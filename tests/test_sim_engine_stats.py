"""Tests for the statistics machinery and CPU model."""

import pytest

from repro.sim import CpuModel, Histogram, StatGroup, geomean


class TestStatGroup:
    def test_autovivifies(self):
        stats = StatGroup("test")
        stats.bump("x")
        stats.bump("x", 4)
        assert stats.get("x") == 5
        assert stats.get("missing") == 0

    def test_merge(self):
        a = StatGroup("a")
        b = StatGroup("b")
        a.bump("k", 2)
        b.bump("k", 3)
        a.merge(b)
        assert a.get("k") == 5

    def test_as_dict_snapshot(self):
        stats = StatGroup("s")
        stats.bump("k")
        snapshot = stats.as_dict()
        stats.bump("k")
        assert snapshot == {"k": 1}


class TestHistogram:
    def test_bucketing_matches_fig1_bounds(self):
        hist = Histogram(bounds=[5.0, 10.0, 15.0, 20.0])
        for sample in (1, 7, 12, 17, 30):
            hist.add(sample)
        assert hist.counts == [1, 1, 1, 1, 1]

    def test_fractions_sum_to_one(self):
        hist = Histogram(bounds=[5.0, 10.0])
        for sample in (1, 2, 7, 20):
            hist.add(sample)
        assert sum(hist.fractions()) == pytest.approx(1.0)

    def test_weighting(self):
        hist = Histogram(bounds=[10.0])
        hist.add(5, weight=3)
        assert hist.counts[0] == 3
        assert hist.total == 3

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=[10.0, 5.0])

    def test_labels_cover_all_buckets(self):
        hist = Histogram(bounds=[5.0, 10.0])
        assert len(hist.labels()) == 3


class TestHistogramPercentile:
    def test_reports_bucket_upper_bound(self):
        hist = Histogram(bounds=[10.0, 20.0, 30.0])
        for sample in (5, 15, 15, 25):
            hist.add(sample)
        assert hist.percentile(25.0) == 10.0
        assert hist.percentile(50.0) == 20.0
        assert hist.percentile(75.0) == 20.0
        assert hist.percentile(100.0) == 30.0

    def test_overflow_bucket_reports_inf(self):
        hist = Histogram(bounds=[10.0])
        hist.add(5)
        hist.add(999)
        assert hist.percentile(50.0) == 10.0
        assert hist.percentile(100.0) == float("inf")

    def test_matches_linear_rescan(self):
        # The precomputed-cumulative fast path must agree with the
        # O(buckets) definition it replaced, bucket for bucket.
        hist = Histogram(bounds=[1.0, 2.0, 4.0, 8.0, 16.0])
        for sample, weight in ((0.5, 3), (1.5, 1), (3.0, 7), (20.0, 2)):
            hist.add(sample, weight=weight)

        def rescan(percentile):
            target = percentile / 100.0 * hist.total
            cumulative = 0
            for bound, count in zip(hist.bounds, hist.counts):
                cumulative += count
                if cumulative >= target:
                    return bound
            return float("inf")

        for pct in (1, 10, 23, 50, 77, 90, 99, 100):
            assert hist.percentile(pct) == rescan(pct)

    def test_cache_invalidated_by_add(self):
        hist = Histogram(bounds=[10.0])
        hist.add(5)
        assert hist.percentile(100.0) == 10.0
        hist.add(50, weight=10)        # overflow now dominates
        assert hist.percentile(100.0) == float("inf")

    def test_rejects_out_of_range(self):
        hist = Histogram(bounds=[10.0])
        hist.add(1)
        for bad in (0.0, -1.0, 100.5):
            with pytest.raises(ValueError):
                hist.percentile(bad)

    def test_empty_histogram_raises(self):
        # Regression: an empty histogram used to silently return
        # bounds[0] (cumulative 0 >= target 0 on the first bucket),
        # reporting a fabricated latency for a run with zero samples.
        hist = Histogram(bounds=[10.0, 20.0])
        with pytest.raises(ValueError, match="empty histogram"):
            hist.percentile(50.0)
        hist.add(5)
        assert hist.percentile(50.0) == 10.0

    def test_cache_invalidated_by_merge(self):
        # Regression: the cumulative cache used a total-based staleness
        # guard; a mutation path that bypassed it served percentiles
        # from the pre-mutation distribution.  Every mutation now
        # invalidates explicitly.
        a = Histogram(bounds=[10.0, 20.0])
        a.add(5, weight=4)
        assert a.percentile(100.0) == 10.0  # primes the cache
        b = Histogram(bounds=[10.0, 20.0])
        b.add(15, weight=4)
        a.merge(b)
        assert a.total == 8
        assert a.percentile(50.0) == 10.0
        assert a.percentile(100.0) == 20.0

    def test_merge_rejects_bound_mismatch(self):
        a = Histogram(bounds=[10.0])
        b = Histogram(bounds=[20.0])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_interleaved_reads_and_mutations_never_stale(self):
        hist = Histogram(bounds=[1.0, 2.0, 4.0])
        reference: list[tuple[float, int]] = []

        def rescan(percentile):
            target = percentile / 100.0 * hist.total
            cumulative = 0
            for bound, count in zip(hist.bounds, hist.counts):
                cumulative += count
                if cumulative >= target:
                    return bound
            return float("inf")

        for sample in (0.5, 3.0, 1.5, 9.0, 0.1, 3.9):
            hist.add(sample)
            reference.append((sample, 1))
            for pct in (25, 50, 75, 100):
                assert hist.percentile(pct) == rescan(pct)


class TestGeomean:
    def test_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestCpuModel:
    def test_compute_time_scales_with_cores(self):
        one = CpuModel(cores=1)
        four = CpuModel(cores=4)
        assert one.compute_ns(1000) == pytest.approx(
            4 * four.compute_ns(1000))

    def test_stall_divided_by_mlp(self):
        cpu = CpuModel(mlp=4.0)
        assert cpu.stall_ns(100.0) == pytest.approx(25.0)

    def test_ipc_roundtrip(self):
        cpu = CpuModel(freq_ghz=2.0)
        # 1000 instructions in 500ns at 2GHz = 1000 cycles -> IPC 1.0
        assert cpu.ipc(1000, 500.0) == pytest.approx(1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CpuModel(freq_ghz=0)
        with pytest.raises(ValueError):
            CpuModel(cores=0)
        with pytest.raises(ValueError):
            CpuModel(mlp=-1)

    def test_cycle_conversions_inverse(self):
        cpu = CpuModel()
        assert cpu.ns_to_cycles(cpu.cycles_to_ns(123.0)) == pytest.approx(
            123.0)
