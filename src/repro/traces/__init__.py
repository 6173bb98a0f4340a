"""Workload layer: synthetic locality-controlled traces and Table II specs."""

from .spec import (
    DEFAULT_SCALE,
    MPKI_GROUPS,
    PAPER_SCALE,
    SPEC2017,
    BenchmarkSpec,
    SystemScale,
    synthetic_spec,
    workload_trace,
)
from .importers import (
    import_trace,
    read_csv_trace,
    read_gem5_trace,
    read_pin_trace,
)
from .packed import PackedTrace
from .tracecache import (
    TraceCache,
    default_trace_cache_dir,
    resolve_trace_cache,
)
from .phases import (
    QUADRANTS,
    Phase,
    PhaseSchedule,
    markov_phases,
    table2_phases,
    windowed_hit_rates,
)
from .mixes import (
    MIX_PRESETS,
    MixMember,
    build_mix,
    member_share,
    mix_trace,
    preset_mix_trace,
)
from .synthetic import (
    GENERATOR_VERSION,
    SyntheticSpec,
    SyntheticTraceGenerator,
    derive_seed,
    phase_shift_trace,
)
from .trace import TraceSummary, summarise

__all__ = [
    "BenchmarkSpec",
    "SystemScale",
    "SPEC2017",
    "MPKI_GROUPS",
    "DEFAULT_SCALE",
    "PAPER_SCALE",
    "synthetic_spec",
    "workload_trace",
    "SyntheticSpec",
    "SyntheticTraceGenerator",
    "GENERATOR_VERSION",
    "derive_seed",
    "phase_shift_trace",
    "MIX_PRESETS",
    "MixMember",
    "build_mix",
    "mix_trace",
    "preset_mix_trace",
    "member_share",
    "Phase",
    "PhaseSchedule",
    "QUADRANTS",
    "table2_phases",
    "markov_phases",
    "windowed_hit_rates",
    "import_trace",
    "read_csv_trace",
    "read_gem5_trace",
    "read_pin_trace",
    "PackedTrace",
    "TraceCache",
    "default_trace_cache_dir",
    "resolve_trace_cache",
    "TraceSummary",
    "summarise",
]
