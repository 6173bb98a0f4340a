"""The Table II SPEC CPU2017 workload catalogue.

Each benchmark is described by its paper-reported MPKI and memory footprint
(Table II) plus spatial/temporal locality knobs chosen from the paper's own
characterisation: Figure 1 pins mcf as strong-spatial/strong-temporal, wrf
as weak-spatial/strong-temporal, and xz as strong-spatial/weak-temporal;
the remaining benchmarks are classed from their well-known behaviour
(streaming HPC codes spatial-heavy, pointer-chasing integer codes
temporal-heavy).

Because the paper simulates a 1GB HBM + 10GB DRAM system over billions of
instructions, and this reproduction runs pure Python, experiments run at a
reduced :class:`SystemScale` that shrinks both the memories and the
footprints by the same factor — preserving every capacity *ratio* the
paper's dynamics depend on (footprint:HBM pressure, HBM:DRAM split).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mem.timing import GIB, MIB
from .packed import PackedTrace
from .synthetic import SyntheticSpec, SyntheticTraceGenerator


@dataclass(frozen=True)
class BenchmarkSpec:
    """One Table II benchmark.

    Attributes:
        name: SPEC benchmark name.
        mpki: LLC misses per kilo-instruction (Table II).
        footprint_gb: Memory footprint in GB (Table II).
        spatial: Spatial-locality knob for the synthetic generator.
        temporal: Temporal-locality knob for the synthetic generator.
        group: MPKI group ("high", "medium", or "low").
        write_fraction: Writeback share of the miss stream.
        hot_fraction: Share of the footprint that forms the reused hot
            working set (large for small-footprint strong-temporal codes,
            tiny for streaming codes).
    """

    name: str
    mpki: float
    footprint_gb: float
    spatial: float
    temporal: float
    group: str
    write_fraction: float = 0.25
    hot_fraction: float = 0.02


#: The fourteen Table II benchmarks, in paper order.
SPEC2017: dict[str, BenchmarkSpec] = {
    spec.name: spec for spec in [
        BenchmarkSpec("roms", 31.9, 10.6, 0.80, 0.40, "high",
                      hot_fraction=0.002),
        BenchmarkSpec("lbm", 31.4, 5.1, 0.85, 0.30, "high",
                      write_fraction=0.45, hot_fraction=0.004),
        BenchmarkSpec("bwaves", 20.4, 7.5, 0.80, 0.50, "high",
                      hot_fraction=0.003),
        BenchmarkSpec("wrf", 18.5, 2.7, 0.15, 0.90, "high",
                      hot_fraction=0.005),
        BenchmarkSpec("xalancbmk", 16.9, 0.6, 0.20, 0.80, "medium",
                      hot_fraction=0.200),
        BenchmarkSpec("mcf", 16.1, 0.2, 0.90, 0.90, "medium",
                      hot_fraction=0.500),
        BenchmarkSpec("cam4", 13.8, 10.8, 0.70, 0.40, "medium",
                      hot_fraction=0.002),
        BenchmarkSpec("cactuBSSN", 12.2, 2.9, 0.75, 0.50, "medium",
                      hot_fraction=0.010),
        BenchmarkSpec("fotonik3d", 2.0, 0.2, 0.80, 0.60, "low",
                      hot_fraction=0.400),
        BenchmarkSpec("x264", 0.9, 1.9, 0.60, 0.70, "low",
                      hot_fraction=0.050),
        BenchmarkSpec("nab", 0.8, 0.9, 0.50, 0.60, "low",
                      hot_fraction=0.100),
        BenchmarkSpec("namd", 0.5, 1.9, 0.55, 0.65, "low",
                      hot_fraction=0.050),
        BenchmarkSpec("xz", 0.4, 7.2, 0.90, 0.10, "low",
                      hot_fraction=0.002),
        BenchmarkSpec("leela", 0.1, 0.1, 0.30, 0.80, "low",
                      hot_fraction=0.500),
    ]
}

MPKI_GROUPS: dict[str, list[str]] = {
    "high": [n for n, s in SPEC2017.items() if s.group == "high"],
    "medium": [n for n, s in SPEC2017.items() if s.group == "medium"],
    "low": [n for n, s in SPEC2017.items() if s.group == "low"],
}


@dataclass(frozen=True)
class SystemScale:
    """Uniform capacity scaling between the paper system and a run.

    Attributes:
        factor: Linear scale applied to HBM, DRAM, and every footprint.
            1.0 reproduces the Table I capacities (1GB HBM + 10GB DRAM).
    """

    factor: float = 1.0 / 32.0

    def __post_init__(self) -> None:
        if not 0 < self.factor <= 1.0:
            raise ValueError("scale factor must be in (0, 1]")

    @property
    def hbm_bytes(self) -> int:
        return max(1 * MIB, int(1 * GIB * self.factor))

    @property
    def dram_bytes(self) -> int:
        return max(10 * MIB, int(10 * GIB * self.factor))

    @property
    def sram_bytes(self) -> int:
        """The 512KB on-chip metadata SRAM budget, scaled with the system
        so metadata-pressure effects survive reduced-scale runs."""
        return max(4 * 1024, int(512 * 1024 * self.factor))

    def footprint_bytes(self, benchmark: BenchmarkSpec) -> int:
        return max(1 * MIB, int(benchmark.footprint_gb * GIB * self.factor))


#: The scale used by the benchmark harness (32MiB HBM + 320MiB DRAM).
DEFAULT_SCALE = SystemScale(1.0 / 32.0)

#: Full paper scale, for configuration printing and metadata sizing.
PAPER_SCALE = SystemScale(1.0)


def synthetic_spec(name: str, scale: SystemScale = DEFAULT_SCALE
                   ) -> SyntheticSpec:
    """Build the synthetic-generator spec for one Table II benchmark.

    Raises:
        KeyError: for a name not in Table II.
    """
    benchmark = SPEC2017[name]
    return SyntheticSpec(
        name=benchmark.name,
        footprint_bytes=scale.footprint_bytes(benchmark),
        spatial=benchmark.spatial,
        temporal=benchmark.temporal,
        mpki=benchmark.mpki,
        write_fraction=benchmark.write_fraction,
        hot_fraction=benchmark.hot_fraction,
    )


def workload_trace(name: str, n_requests: int,
                   scale: SystemScale = DEFAULT_SCALE,
                   seed: int = 1234) -> PackedTrace:
    """Materialise ``n_requests`` of one benchmark's miss stream."""
    generator = SyntheticTraceGenerator(synthetic_spec(name, scale),
                                        seed=seed)
    return generator.generate_packed(n_requests)
