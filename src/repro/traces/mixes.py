"""Multi-programmed workload mixes.

The Table I system is a multi-core cluster; beyond the paper's rate-style
per-benchmark runs, heterogeneous-memory studies commonly evaluate
*mixes* — several benchmarks co-running with the memory system seeing
their interleaved miss streams.  A mix stresses exactly what Bumblebee
claims to handle: different regions of the address space want different
cHBM:mHBM treatment *at the same time*, not just across program phases.

Each member of a mix occupies a disjoint region of the flat OS address
space (via ``base_addr``); streams interleave in proportion to their MPKI
(a higher-MPKI program misses more often per unit time), matching how a
shared memory controller would observe them.
"""

from __future__ import annotations

import bisect
import heapq
from array import array
from dataclasses import dataclass
from typing import Sequence

from .packed import ICOUNT_MAX, PackedTrace
from .spec import DEFAULT_SCALE, SystemScale, synthetic_spec
from .synthetic import SyntheticSpec, SyntheticTraceGenerator

#: Canonical mixes, one per locality regime the paper's motivation names.
MIX_PRESETS: dict[str, tuple[str, ...]] = {
    # strong spatial + strong temporal against capacity pressure
    "mix-capacity": ("mcf", "roms"),
    # the Figure 1 trio co-running
    "mix-fig1": ("mcf", "wrf", "xz"),
    # bandwidth-hungry HPC pair plus a pointer chaser
    "mix-bandwidth": ("lbm", "bwaves", "xalancbmk"),
    # low-MPKI background with one aggressor
    "mix-aggressor": ("leela", "namd", "roms"),
}


@dataclass(frozen=True)
class MixMember:
    """One program of a mix, pinned to its own address region."""

    spec: SyntheticSpec
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("mix member weight must be positive")


def build_mix(names: Sequence[str],
              scale: SystemScale = DEFAULT_SCALE,
              region_bytes: int | None = None) -> list[MixMember]:
    """Construct mix members with disjoint address regions.

    Args:
        names: Table II benchmark names (duplicates allowed — a "rate"
            mix runs several copies).
        scale: System scale used for footprints.
        region_bytes: Size of each member's region; defaults to the
            largest member footprint, rounded up to a 64KB page.

    Returns:
        Mix members whose ``spec.base_addr`` values tile the address
        space without overlap, weighted by their MPKI.

    Raises:
        KeyError: for unknown benchmark names.
        ValueError: for an empty mix.
    """
    if not names:
        raise ValueError("a mix needs at least one member")
    specs = [synthetic_spec(name, scale) for name in names]
    page = 64 * 1024
    if region_bytes is None:
        region_bytes = max(spec.footprint_bytes for spec in specs)
    region_bytes = (region_bytes + page - 1) // page * page
    members = []
    for index, spec in enumerate(specs):
        placed = SyntheticSpec(
            name=f"{spec.name}#{index}",
            footprint_bytes=min(spec.footprint_bytes, region_bytes),
            spatial=spec.spatial,
            temporal=spec.temporal,
            mpki=spec.mpki,
            write_fraction=spec.write_fraction,
            hot_fraction=spec.hot_fraction,
            base_addr=index * region_bytes,
        )
        members.append(MixMember(spec=placed, weight=spec.mpki))
    return members


def mix_trace(members: Sequence[MixMember], n_requests: int,
              seed: int = 1234) -> PackedTrace:
    """Interleave member miss streams in miss-rate proportion.

    A virtual-time merge: each member advances a clock by
    ``1 / weight`` per emitted request, and the globally earliest member
    emits next — deterministic, starvation-free, and rate-accurate.
    Instruction counts are rescaled so the merged stream's aggregate
    MPKI equals the sum of the members' rates.

    The merge only decides the member order; each member then draws
    its whole share with
    :meth:`~repro.traces.synthetic.SyntheticTraceGenerator.generate_packed`
    and the merged stream takes the members' records in that order.

    Raises:
        ValueError: for an empty mix, or weights whose merged icount
            exceeds the packed layout's budget.
    """
    if not members:
        raise ValueError("a mix needs at least one member")
    merged_icount = max(1, round(1000.0 / sum(m.weight for m in members)))
    if merged_icount > ICOUNT_MAX:
        raise ValueError(f"merged icount {merged_icount} exceeds the "
                         f"packed budget")
    steps = [1.0 / member.weight for member in members]
    heap = [(step, index) for index, step in enumerate(steps)]
    heapq.heapify(heap)
    order: list[int] = []
    counts = [0] * len(members)
    for _ in range(n_requests):
        clock, index = heap[0]
        heapq.heapreplace(heap, (clock + steps[index], index))
        order.append(index)
        counts[index] += 1
    streams = [iter(SyntheticTraceGenerator(member.spec, seed=seed + index)
                    .generate_packed(counts[index]).data)
               for index, member in enumerate(members)]
    keep = ~(ICOUNT_MAX << 1) & 0xFFFF_FFFF_FFFF_FFFF
    icount_bits = merged_icount << 1
    return PackedTrace(array("Q", [next(streams[index]) & keep | icount_bits
                                   for index in order]))


def preset_mix_trace(name: str, n_requests: int,
                     scale: SystemScale = DEFAULT_SCALE,
                     seed: int = 1234) -> PackedTrace:
    """Materialise one of the canonical :data:`MIX_PRESETS`.

    Args:
        name: Preset key in :data:`MIX_PRESETS`.
        n_requests: Merged stream length.
        scale: System scale used for footprints.
        seed: Base seed (each member derives its own stream).

    Raises:
        KeyError: for an unknown preset name.
    """
    return mix_trace(build_mix(MIX_PRESETS[name], scale), n_requests,
                     seed=seed)


def member_share(members: Sequence[MixMember],
                 trace: PackedTrace) -> dict[str, float]:
    """Fraction of a merged trace's requests belonging to each member."""
    if not members:
        raise ValueError("a mix needs at least one member")
    regions = sorted((m.spec.base_addr, m.spec.name) for m in members)
    counts = {name: 0 for _, name in regions}
    bases = [base for base, _ in regions]
    names = [name for _, name in regions]
    for addr, _, _ in trace.iter_decoded():
        counts[names[bisect.bisect_right(bases, addr) - 1]] += 1
    total = len(trace) or 1
    return {name: count / total for name, count in counts.items()}
