"""Trace analysis: reuse distance, strides, and time-resolved statistics.

Tools for characterising a miss stream the same way the paper's §II
motivation characterises SPEC slices — usable both on the built-in
synthetic workloads (to verify the locality knobs produce the intended
patterns) and on user-imported traces (``repro.traces.import_trace``).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..sim.request import CACHE_LINE_BYTES, MemoryRequest
from ..sim.stats import Histogram


@dataclass(frozen=True)
class ReuseProfile:
    """LRU reuse-distance distribution of a trace.

    ``distances`` holds per-bucket counts for the bounds in ``bounds``;
    ``cold`` counts first-touch accesses (infinite distance).  The CDF at
    a cache size of N lines predicts that cache's hit rate under LRU —
    the classic single-pass locality summary.
    """

    bounds: tuple[int, ...]
    counts: tuple[int, ...]
    cold: int
    total: int

    def hit_rate_at(self, capacity_lines: int) -> float:
        """Predicted fully-associative LRU hit rate at a given capacity."""
        if self.total == 0:
            return 0.0
        hits = 0
        for bound, count in zip(self.bounds, self.counts):
            if bound <= capacity_lines:
                hits += count
        return hits / self.total

    def cold_fraction(self) -> float:
        return self.cold / self.total if self.total else 0.0


def reuse_distance_profile(trace: Iterable[MemoryRequest],
                           bounds: Sequence[int] = (16, 256, 4096, 65536,
                                                    1 << 20)
                           ) -> ReuseProfile:
    """Single-pass approximate LRU reuse-distance histogram.

    Distances are measured in distinct 64B lines touched since the last
    access to the same line, tracked exactly with an ordered map (O(d)
    per access via rank scan over a capped window — lines beyond the
    largest bound are treated as cold, keeping the pass linear-ish for
    big traces).
    """
    bounds = tuple(sorted(bounds))
    cap = bounds[-1]
    stack: OrderedDict[int, None] = OrderedDict()
    counts = [0] * len(bounds)
    cold = 0
    total = 0
    for request in trace:
        line = request.line
        total += 1
        if line in stack:
            distance = 0
            for key in reversed(stack):
                if key == line:
                    break
                distance += 1
            stack.move_to_end(line)
            for index, bound in enumerate(bounds):
                if distance < bound:
                    counts[index] += 1
                    break
            else:
                cold += 1  # beyond tracking cap: treat as cold
        else:
            cold += 1
            stack[line] = None
            if len(stack) > cap:
                stack.popitem(last=False)
    return ReuseProfile(bounds=bounds, counts=tuple(counts), cold=cold,
                        total=total)


@dataclass(frozen=True)
class StrideProfile:
    """Distribution of address deltas between consecutive accesses."""

    sequential: float      # delta == +64B
    near: float            # 0 < |delta| <= 4KB (same-page-ish)
    far: float             # everything else
    top_strides: tuple[tuple[int, int], ...]

    @property
    def spatial_score(self) -> float:
        """A [0,1] summary comparable to the generator's spatial knob."""
        return self.sequential + 0.5 * self.near


def stride_profile(trace: Sequence[MemoryRequest],
                   top: int = 5, lookback: int = 8) -> StrideProfile:
    """Classify access strides (sequentiality fingerprint).

    Real controllers (and this package's generator) interleave several
    streams, so each access is compared against the previous
    ``lookback`` accesses: the best-matching delta classifies it as
    sequential (+64B continuation of some recent access), near (within
    4KB of one), or far.

    Raises:
        ValueError: on traces shorter than two requests.
    """
    if len(trace) < 2:
        raise ValueError("stride profile needs at least two requests")
    counter: Counter[int] = Counter()
    sequential = near = far = 0
    recent: list[int] = []
    for index, request in enumerate(trace):
        if recent:
            counter[request.addr - recent[-1]] += 1
            deltas = [request.addr - prev for prev in recent]
            if CACHE_LINE_BYTES in deltas:
                sequential += 1
            elif any(0 < abs(d) <= 4096 for d in deltas):
                near += 1
            else:
                far += 1
        recent.append(request.addr)
        if len(recent) > lookback:
            recent.pop(0)
    n = len(trace) - 1
    return StrideProfile(
        sequential=sequential / n,
        near=near / n,
        far=far / n,
        top_strides=tuple(counter.most_common(top)),
    )


@dataclass(frozen=True)
class TimeSeries:
    """Windowed statistics over a trace."""

    window: int
    mpki: tuple[float, ...]
    distinct_lines: tuple[int, ...]
    write_fraction: tuple[float, ...]


def windowed_statistics(trace: Sequence[MemoryRequest],
                        window: int = 10_000) -> TimeSeries:
    """Per-window MPKI, footprint, and write mix (phase detection).

    Raises:
        ValueError: for a non-positive window.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    mpki: list[float] = []
    distinct: list[int] = []
    writes: list[float] = []
    for start in range(0, len(trace), window):
        chunk = trace[start:start + window]
        if not chunk:
            break
        instructions = sum(r.icount for r in chunk) or 1
        mpki.append(len(chunk) * 1000.0 / instructions)
        distinct.append(len({r.line for r in chunk}))
        writes.append(sum(r.is_write for r in chunk) / len(chunk))
    return TimeSeries(window=window, mpki=tuple(mpki),
                      distinct_lines=tuple(distinct),
                      write_fraction=tuple(writes))


def locality_fingerprint(trace: Sequence[MemoryRequest]) -> dict:
    """One-call summary: reuse, stride, and footprint features.

    ``spatial_score``/``temporal_score`` rank workloads on the same
    axes as the synthetic generator's knobs.  Both are *window-relative*:
    temporal reuse only registers once the window revisits its hot set,
    so short windows under-report strong-temporal workloads — compare
    fingerprints at equal window lengths.
    """
    reuse = reuse_distance_profile(trace)
    strides = stride_profile(trace)
    lines = {r.line for r in trace}
    reuse_share = 1.0 - reuse.cold_fraction()
    return {
        "requests": len(trace),
        "footprint_bytes": len(lines) * CACHE_LINE_BYTES,
        "spatial_score": strides.spatial_score,
        "temporal_score": reuse_share,
        "reuse_profile": reuse,
        "stride_profile": strides,
    }
