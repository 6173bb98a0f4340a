"""Lightweight statistics machinery shared by the simulator.

Provides named counters and fixed-bucket histograms, similar in spirit to
gem5's stats package but flat and pickle-friendly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np


class StatGroup:
    """A named bundle of integer counters.

    Counters auto-vivify at zero, so controllers can ``bump`` freely without
    pre-declaring every statistic.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Counter[str] = Counter()

    def bump(self, key: str, amount: int = 1) -> None:
        """Increment counter ``key`` by ``amount``."""
        self._counters[key] += amount

    def get(self, key: str, default: int = 0) -> int:
        return self._counters.get(key, default)

    def as_dict(self) -> dict[str, int]:
        """A plain-dict snapshot of every counter."""
        return dict(self._counters)

    def merge(self, other: "StatGroup") -> None:
        self._counters.update(other._counters)

    def reset(self) -> None:
        self._counters.clear()

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(
            self._counters.items()))
        return f"StatGroup({self.name}: {inner})"


@dataclass
class Histogram:
    """Fixed-bucket histogram over non-negative samples.

    Args:
        bounds: Ascending upper bounds; a sample falls in the first bucket
            whose bound it is strictly below, else the overflow bucket.
    """

    bounds: list[float]
    counts: list[int] = field(default_factory=list)
    total: int = 0

    def __post_init__(self) -> None:
        if sorted(self.bounds) != list(self.bounds):
            raise ValueError("histogram bounds must be ascending")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        # Cumulative-count cache for percentile(); a plain attribute
        # (not a dataclass field) so equality, repr, and asdict dumps
        # are unaffected.  Every mutation path must call
        # _invalidate_cache() — a total-based staleness guard is not
        # enough, because mutations that preserve the total (merging a
        # histogram with an empty one, rescaling counts) would slip
        # past it.
        self._cumulative: list[int] | None = None

    def _invalidate_cache(self) -> None:
        """Drop the cumulative cache; call after any counts mutation."""
        self._cumulative = None

    def add(self, sample: float, weight: int = 1) -> None:
        """Record ``sample`` with multiplicity ``weight``."""
        # bisect_right returns the first bucket whose bound exceeds the
        # sample — exactly the linear scan's bucket, without the scan.
        self.counts[bisect_right(self.bounds, sample)] += weight
        self.total += weight
        self._invalidate_cache()

    def add_many(self, samples) -> None:
        """Bulk-record samples; equivalent to :meth:`add` per element.

        ``np.searchsorted(side="right")`` is the array form of the
        per-sample ``bisect_right``, so bucket assignment is identical;
        counts stay plain Python ints.

        Args:
            samples: Sequence or array of sample values.
        """
        values = np.asarray(samples, dtype=float)
        buckets = np.searchsorted(np.asarray(self.bounds, dtype=float),
                                  values, side="right")
        binned = np.bincount(buckets, minlength=len(self.bounds) + 1)
        counts = self.counts
        for index, count in enumerate(binned.tolist()):
            if count:
                counts[index] += count
        self.total += int(values.size)
        self._invalidate_cache()

    def merge(self, other: "Histogram") -> None:
        """Accumulate ``other``'s buckets into this histogram.

        Raises:
            ValueError: when the bucket bounds differ.
        """
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self._invalidate_cache()

    def percentile(self, percentile: float) -> float:
        """Upper bound of the bucket containing ``percentile``.

        The overflow bucket reports ``inf``.  Cumulative counts are
        precomputed once and reused across calls (a bisect per call
        instead of an O(buckets) scan).

        Raises:
            ValueError: when ``percentile`` is outside (0, 100], or
                when the histogram holds no samples — with zero total
                the target count is 0, ``bisect_left`` lands on bucket
                0, and the result would silently read as "p99 =
                ``bounds[0]``" for a run that never recorded anything.
        """
        if not 0.0 < percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if self.total == 0:
            raise ValueError("percentile of empty histogram")
        cumulative = self._cumulative
        if cumulative is None:
            cumulative = self._cumulative = list(accumulate(self.counts))
        target = percentile / 100.0 * self.total
        index = bisect_left(cumulative, target)
        if index < len(self.bounds):
            return self.bounds[index]
        return float("inf")

    def fractions(self) -> list[float]:
        """Per-bucket fractions of the total (zeros when empty)."""
        if self.total == 0:
            return [0.0] * len(self.counts)
        return [c / self.total for c in self.counts]

    def labels(self) -> list[str]:
        """Human-readable bucket labels."""
        out = []
        low: float = 0.0
        for bound in self.bounds:
            out.append(f"[{low:g}, {bound:g})")
            low = bound
        out.append(f"[{low:g}, inf)")
        return out


def geomean(values: list[float]) -> float:
    """Geometric mean of strictly positive values.

    Raises:
        ValueError: on an empty list or any non-positive value.
    """
    if not values:
        raise ValueError("geomean of empty sequence")
    product_log = 0.0
    import math
    for value in values:
        if value <= 0:
            raise ValueError(f"geomean requires positive values, got {value}")
        product_log += math.log(value)
    return math.exp(product_log / len(values))
