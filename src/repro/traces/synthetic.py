"""Synthetic LLC-miss trace generator with controllable locality.

SimPoint slices of SPEC CPU2017 are not redistributable, so the reproduction
generates stationary synthetic miss streams whose two knobs map directly
onto the paper's analysis axes (Figure 1):

* ``spatial``  (0..1): probability mass of sequential-run behaviour, and the
  cluster size used when sampling the hot working set.  High spatial means
  neighbouring 64B lines of a page are touched together, so large blocks /
  pages pay off (mcf, xz).  Low spatial scatters hot lines across pages
  (wrf), so large lines over-fetch.
* ``temporal`` (0..1): probability mass of re-references to a compact hot
  working set.  High temporal concentrates accesses on hot lines (mcf,
  wrf); low temporal approaches streaming with little reuse (xz).

The generator mixes three behaviours per request — hot-set re-reference,
sequential-run continuation, and uniform cold access — with mixture weights
derived from the two knobs.  All randomness flows from one seeded
:class:`random.Random`, so traces are reproducible bit-for-bit.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import zlib
from dataclasses import dataclass
from typing import Iterator

from array import array

from ..sim.request import CACHE_LINE_BYTES, MemoryRequest
from .packed import ICOUNT_MAX, LINE_MAX, LINE_SHIFT, PackedTrace

#: Version of the stream-derivation scheme.  Bumped whenever generated
#: streams change for the same inputs — v2 replaced the additive
#: ``seed + phase`` sub-stream derivation (which collided: (seed=4,
#: phase=1) == (seed=5, phase=0)) with :func:`derive_seed`.  The trace
#: cache keys on this, so stale cached streams are never resurfaced.
GENERATOR_VERSION = 2


def derive_seed(*parts: object) -> int:
    """Derive an independent RNG seed from a tuple of mix-ins.

    A proper hash mix: any change to any part (including swapping values
    between positions) yields an unrelated seed, unlike additive schemes
    where ``(seed+1, phase)`` and ``(seed, phase+1)`` collide.  Stable
    across processes and platforms (unlike salted ``str.__hash__``).
    """
    canonical = repr(parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(canonical).digest()[:8], "big")


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic workload.

    Attributes:
        name: Workload label.
        footprint_bytes: Size of the touched address range.
        spatial: Spatial-locality knob in [0, 1].
        temporal: Temporal-locality knob in [0, 1].
        mpki: Target LLC misses per kilo-instruction (sets icount gaps).
        write_fraction: Fraction of requests that are writebacks.
        hot_fraction: Share of the footprint forming the hot working set
            that temporal re-references concentrate on.  Strong-temporal,
            small-footprint codes (mcf, leela) reuse much of their data;
            streaming codes reuse a sliver.
        base_addr: Offset of the workload's region in the flat address
            space (lets mixes occupy disjoint regions).
    """

    name: str
    footprint_bytes: int
    spatial: float
    temporal: float
    mpki: float
    write_fraction: float = 0.25
    hot_fraction: float = 0.02
    base_addr: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.spatial <= 1.0:
            raise ValueError("spatial must be in [0, 1]")
        if not 0.0 <= self.temporal <= 1.0:
            raise ValueError("temporal must be in [0, 1]")
        if self.footprint_bytes < CACHE_LINE_BYTES:
            raise ValueError("footprint must hold at least one line")
        if self.mpki <= 0:
            raise ValueError("mpki must be positive")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")

    @property
    def footprint_lines(self) -> int:
        return self.footprint_bytes // CACHE_LINE_BYTES

    @property
    def icount_per_miss(self) -> int:
        return max(1, round(1000.0 / self.mpki))

    def scaled(self, factor: float) -> "SyntheticSpec":
        """A copy with the footprint scaled by ``factor`` (>= one page)."""
        lines = max(1024, int(self.footprint_lines * factor))
        return SyntheticSpec(
            name=self.name,
            footprint_bytes=lines * CACHE_LINE_BYTES,
            spatial=self.spatial,
            temporal=self.temporal,
            mpki=self.mpki,
            write_fraction=self.write_fraction,
            hot_fraction=self.hot_fraction,
            base_addr=self.base_addr,
        )


class SyntheticTraceGenerator:
    """Generates an endless miss stream for one :class:`SyntheticSpec`."""

    #: Ceiling on hot-set size in lines (keeps reuse density meaningful).
    HOT_SET_MAX_LINES = 1 << 20
    #: Number of concurrent sequential streams.
    STREAMS = 4
    #: Probability of churning one hot line per request at temporal=0.
    CHURN_MAX = 0.002
    #: Drift floor: even strong-temporal codes slowly shift their hot
    #: working set (phase behaviour), which is what keeps replacement
    #: policies honest — a drifted hot line costs a block fill in a
    #: cache design but a whole page migration in a POM design.
    CHURN_MIN = 0.003

    def __init__(self, spec: SyntheticSpec, seed: int = 1234) -> None:
        self.spec = spec
        # zlib.crc32 is stable across processes (str.__hash__ is salted
        # per interpreter run and would break trace reproducibility).
        self._rng = random.Random(seed * 1_000_003
                                  + zlib.crc32(spec.name.encode()))
        self._p_hot = 0.75 * spec.temporal
        self._p_seq = (1.0 - self._p_hot) * spec.spatial
        self._churn = max(self.CHURN_MIN,
                          self.CHURN_MAX * (1.0 - spec.temporal))
        self._run_mean = 8 + int(spec.spatial * spec.spatial * 3000)
        self._hot_lines = self._sample_hot_set()
        self._streams = [self._new_stream() for _ in range(self.STREAMS)]

    def _sample_hot_set(self) -> list[int]:
        """Sample hot lines, clustered when spatial locality is strong."""
        spec = self.spec
        rng = self._rng
        count = max(64, min(self.HOT_SET_MAX_LINES,
                            int(spec.footprint_lines
                                * spec.hot_fraction)))
        count = min(count, spec.footprint_lines)
        # Hot data clusters into contiguous runs whose size tracks spatial
        # locality: strong-spatial hot regions span most of a 64KB page
        # (1024 lines); weak-spatial hot lines sit 1-2 to a 2KB block.
        cluster = max(2, int(spec.spatial * spec.spatial * 1024))
        footprint = spec.footprint_lines
        lines: list[int] = []
        while len(lines) < count:
            start = rng.randrange(footprint)
            end = start + min(cluster, count - len(lines))
            # A cluster is at most count <= footprint lines long, so it
            # wraps past the end of the footprint at most once.
            lines.extend(range(start, min(end, footprint)))
            if end > footprint:
                lines.extend(range(end - footprint))
        return lines

    def _new_stream(self) -> list[int]:
        """A sequential stream: [cursor_line, remaining_run_length].

        Run lengths are uniform in [0.5, 1.5] x mean: regular tiled
        kernels (the strong-spatial SPEC codes) sweep fixed-extent rows,
        not exponentially skewed bursts.
        """
        rng = self._rng
        start = rng.randrange(self.spec.footprint_lines)
        length = max(1, int(self._run_mean * (0.5 + rng.random())))
        return [start, length]

    def _next_line(self) -> int:
        rng = self._rng
        draw = rng.random()
        if draw < self._p_hot:
            index = rng.randrange(len(self._hot_lines))
            if self._churn and rng.random() < self._churn:
                self._hot_lines[index] = rng.randrange(
                    self.spec.footprint_lines)
            return self._hot_lines[index]
        if draw < self._p_hot + self._p_seq:
            stream = self._streams[rng.randrange(self.STREAMS)]
            line = stream[0]
            stream[0] = (stream[0] + 1) % self.spec.footprint_lines
            stream[1] -= 1
            if stream[1] <= 0:
                stream[:] = self._new_stream()
            return line
        # Cold access: in a strongly spatial workload even irregular
        # accesses land near recent activity (indirect accesses into the
        # active tile); only weak-spatial codes scatter uniformly.
        if rng.random() < self.spec.spatial:
            cursor = self._streams[rng.randrange(self.STREAMS)][0]
            page_base = cursor - (cursor % 1024)
            return (page_base + rng.randrange(1024)) % \
                self.spec.footprint_lines
        return rng.randrange(self.spec.footprint_lines)

    def __iter__(self) -> Iterator[MemoryRequest]:
        spec = self.spec
        rng = self._rng
        icount = spec.icount_per_miss
        write_fraction = spec.write_fraction
        base = spec.base_addr
        while True:
            addr = base + self._next_line() * CACHE_LINE_BYTES
            yield MemoryRequest(
                addr=addr,
                is_write=rng.random() < write_fraction,
                icount=icount,
            )

    def generate(self, n: int) -> list[MemoryRequest]:
        """Materialise ``n`` requests."""
        return list(itertools.islice(iter(self), n))

    def generate_packed(self, n: int) -> PackedTrace:
        """Materialise ``n`` requests in packed form, no objects built.

        Consumes the RNG in exactly the order of :meth:`__iter__`
        (address draw, then write draw), so the packed stream decodes to
        the byte-identical ``(addr, is_write, icount)`` sequence the
        reference :meth:`__iter__` yields for the same seed.

        Raises:
            ValueError: when the spec is not representable in the packed
                layout (address or icount beyond the bit budget).
        """
        spec = self.spec
        icount = spec.icount_per_miss
        top_addr = spec.base_addr + spec.footprint_lines * CACHE_LINE_BYTES
        if spec.base_addr % CACHE_LINE_BYTES or \
                top_addr > (LINE_MAX + 1) * CACHE_LINE_BYTES:
            raise ValueError(f"spec {spec.name!r} addresses do not fit "
                             "the packed layout")
        if icount > ICOUNT_MAX:
            raise ValueError(f"icount {icount} exceeds the packed budget")
        rng_random = self._rng.random
        next_line = self._next_line
        write_fraction = spec.write_fraction
        base_line = spec.base_addr // CACHE_LINE_BYTES
        icount_bits = icount << 1
        shift = LINE_SHIFT
        data = array("Q", bytes(8 * n))
        for index in range(n):
            line = base_line + next_line()
            data[index] = ((line << shift) | icount_bits
                           | (rng_random() < write_fraction))
        return PackedTrace(data)


def phase_shift_trace(spec_a: SyntheticSpec, spec_b: SyntheticSpec,
                      n_per_phase: int, phases: int = 2,
                      seed: int = 1234) -> PackedTrace:
    """Alternate between two workload behaviours (phase-change stress).

    Exercises Bumblebee's claim that the cHBM:mHBM ratio adapts *at
    runtime* — each phase flips the dominant locality pattern.

    Each phase's RNG derives from a hash mix of the base seed and the
    phase index (not ``seed + phase``, whose collisions made e.g.
    (seed=4, phase=1) replay (seed=5, phase=0)'s stream exactly).
    """
    return PackedTrace.concat(
        SyntheticTraceGenerator(
            spec_a if phase % 2 == 0 else spec_b,
            seed=derive_seed("phase-shift", seed, phase)
        ).generate_packed(n_per_phase)
        for phase in range(phases))
