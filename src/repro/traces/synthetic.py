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

    def _draws(self, base_line: int, icount_bits: int) -> Iterator[int]:
        """The endless draw loop behind :meth:`__iter__` and
        :meth:`generate_packed`: each request's line, then its write
        draw, yielded as ``(base_line + line) << LINE_SHIFT |
        icount_bits | is_write``.

        Every piece of state stays on ``self`` (the RNG, and the hot set
        and streams mutated in place), so a loop abandoned between
        requests loses nothing a later loop needs.  Each
        ``randrange(n)`` is written out as CPython's ``_randbelow``:
        ``getrandbits(n.bit_length())`` redrawn while it is ``>= n``,
        the same draws without three Python frames per call.
        """
        spec = self.spec
        rng = self._rng
        random_ = rng.random
        getrandbits = rng.getrandbits
        hot = self._hot_lines
        streams = self._streams
        new_stream = self._new_stream
        footprint = spec.footprint_lines
        n_hot = len(hot)
        n_streams = self.STREAMS
        k_hot = n_hot.bit_length()
        k_foot = footprint.bit_length()
        k_streams = n_streams.bit_length()
        k_page = (1024).bit_length()
        p_hot = self._p_hot
        p_seq_end = self._p_hot + self._p_seq
        churn = self._churn
        spatial = spec.spatial
        write_fraction = spec.write_fraction
        shift = LINE_SHIFT
        while True:
            draw = random_()
            if draw < p_hot:
                index = getrandbits(k_hot)
                while index >= n_hot:
                    index = getrandbits(k_hot)
                if churn and random_() < churn:
                    line = getrandbits(k_foot)
                    while line >= footprint:
                        line = getrandbits(k_foot)
                    hot[index] = line
                line = hot[index]
            elif draw < p_seq_end:
                pick = getrandbits(k_streams)
                while pick >= n_streams:
                    pick = getrandbits(k_streams)
                stream = streams[pick]
                line = stream[0]
                stream[0] = (line + 1) % footprint
                stream[1] -= 1
                if stream[1] <= 0:
                    stream[:] = new_stream()
            elif random_() < spatial:
                # Cold access: in a strongly spatial workload even
                # irregular accesses land near recent activity (indirect
                # accesses into the active tile); only weak-spatial
                # codes scatter uniformly.
                pick = getrandbits(k_streams)
                while pick >= n_streams:
                    pick = getrandbits(k_streams)
                cursor = streams[pick][0]
                offset = getrandbits(k_page)
                while offset >= 1024:
                    offset = getrandbits(k_page)
                line = (cursor - cursor % 1024 + offset) % footprint
            else:
                line = getrandbits(k_foot)
                while line >= footprint:
                    line = getrandbits(k_foot)
            yield (((base_line + line) << shift) | icount_bits
                   | (random_() < write_fraction))

    def __iter__(self) -> Iterator[MemoryRequest]:
        base = self.spec.base_addr
        icount = self.spec.icount_per_miss
        for value in self._draws(0, 0):
            yield MemoryRequest(
                addr=base + (value >> LINE_SHIFT) * CACHE_LINE_BYTES,
                is_write=bool(value & 1),
                icount=icount,
            )

    def generate(self, n: int) -> list[MemoryRequest]:
        """Materialise ``n`` requests."""
        return list(itertools.islice(iter(self), n))

    def generate_packed(self, n: int) -> PackedTrace:
        """Materialise ``n`` requests in packed form, no objects built.

        Draws from the loop :meth:`__iter__` draws from, so the packed
        stream decodes to the byte-identical ``(addr, is_write,
        icount)`` sequence :meth:`__iter__` yields for the same seed.

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
        draws = self._draws(spec.base_addr // CACHE_LINE_BYTES, icount << 1)
        return PackedTrace(array("Q", itertools.islice(draws, n)))


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
