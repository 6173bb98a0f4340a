"""Phase-structured workloads: schedules of changing locality behaviour.

SimPoint slices are stationary by construction, but whole SPEC programs
move through *phases* — and runtime re-partitioning (the paper's central
feature, "without rebooting") only pays off when behaviour changes while
the program runs.  This module generalises
:func:`~repro.traces.synthetic.phase_shift_trace` into arbitrary phase
schedules:

* a :class:`PhaseSchedule` is an ordered list of (spec, length) segments,
  optionally cycled;
* :func:`markov_phases` derives a randomised schedule from a transition
  matrix, for long-horizon stress tests;
* :func:`table2_phases` builds a schedule that walks a benchmark through
  the paper's four locality quadrants while keeping its MPKI and
  footprint, the purest test of ratio adaptivity.

Phase boundaries reuse the same address space (``base_addr`` preserved),
so data placed during one phase is exactly the data the next phase finds
— mode switches, evictions, and re-partitioning all happen live.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .packed import PackedTrace
from .spec import DEFAULT_SCALE, SystemScale, synthetic_spec
from .synthetic import SyntheticSpec, SyntheticTraceGenerator, derive_seed


@dataclass(frozen=True)
class Phase:
    """One segment of a phase schedule."""

    spec: SyntheticSpec
    requests: int

    def __post_init__(self) -> None:
        if self.requests <= 0:
            raise ValueError("phase length must be positive")


@dataclass
class PhaseSchedule:
    """An ordered sequence of phases, optionally repeated.

    Attributes:
        phases: The segments, in execution order.
        cycles: How many times the whole sequence repeats.
        seed: Base seed; each phase instance derives its own stream.
    """

    phases: list[Phase]
    cycles: int = 1
    seed: int = 1234

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("schedule needs at least one phase")
        if self.cycles < 1:
            raise ValueError("cycles must be positive")

    @property
    def total_requests(self) -> int:
        return self.cycles * sum(p.requests for p in self.phases)

    def generate(self) -> PackedTrace:
        """Emit the full schedule as one packed trace.

        Each phase instance's RNG derives from a hash mix of the base
        seed and the instance index (``seed + instance`` collided
        across neighbouring schedule seeds).
        """
        return PackedTrace.concat(
            SyntheticTraceGenerator(
                phase.spec,
                seed=derive_seed("phase-schedule", self.seed, instance)
            ).generate_packed(phase.requests)
            for instance, phase in enumerate(self.phases * self.cycles))

    def boundaries(self) -> list[int]:
        """Request indices at which a new phase begins (excluding 0)."""
        out = []
        cursor = 0
        for _ in range(self.cycles):
            for phase in self.phases:
                cursor += phase.requests
                out.append(cursor)
        return out[:-1]


#: The four locality quadrants of the paper's motivation (§II-B).
QUADRANTS: dict[str, tuple[float, float]] = {
    "S+T+": (0.9, 0.9),   # mcf-like
    "S-T+": (0.15, 0.9),  # wrf-like
    "S+T-": (0.9, 0.1),   # xz-like
    "S-T-": (0.2, 0.2),   # scatter
}


def table2_phases(benchmark: str, requests_per_phase: int,
                  order: Sequence[str] = ("S+T+", "S-T+", "S+T-", "S-T-"),
                  cycles: int = 1,
                  scale: SystemScale = DEFAULT_SCALE,
                  seed: int = 1234) -> PhaseSchedule:
    """Walk one Table II benchmark through the locality quadrants.

    Footprint, MPKI, write mix, and the hot-set share stay the
    benchmark's own; only the locality knobs change per phase — so any
    performance difference between designs across the schedule is purely
    their reaction to the pattern change.

    Raises:
        KeyError: for unknown benchmark or quadrant names.
    """
    base = synthetic_spec(benchmark, scale)
    phases = []
    for name in order:
        spatial, temporal = QUADRANTS[name]
        phases.append(Phase(
            spec=SyntheticSpec(
                name=f"{benchmark}:{name}",
                footprint_bytes=base.footprint_bytes,
                spatial=spatial,
                temporal=temporal,
                mpki=base.mpki,
                write_fraction=base.write_fraction,
                hot_fraction=base.hot_fraction,
                base_addr=base.base_addr,
            ),
            requests=requests_per_phase,
        ))
    return PhaseSchedule(phases=phases, cycles=cycles, seed=seed)


def markov_phases(specs: Sequence[SyntheticSpec], n_phases: int,
                  requests_per_phase: int,
                  self_loop: float = 0.5,
                  seed: int = 1234) -> PhaseSchedule:
    """A randomised schedule: stay in the current behaviour with
    probability ``self_loop``, else jump to a uniformly chosen other.

    Models bursty long-horizon programs; deterministic given the seed.

    Raises:
        ValueError: for empty specs or invalid probabilities.
    """
    if not specs:
        raise ValueError("markov_phases needs at least one spec")
    if not 0.0 <= self_loop <= 1.0:
        raise ValueError("self_loop must be a probability")
    rng = random.Random(seed)
    current = 0
    phases = []
    for _ in range(n_phases):
        phases.append(Phase(spec=specs[current],
                            requests=requests_per_phase))
        if len(specs) > 1 and rng.random() >= self_loop:
            choices = [i for i in range(len(specs)) if i != current]
            current = rng.choice(choices)
    return PhaseSchedule(phases=phases, seed=seed)


def windowed_hit_rates(controller, schedule: PhaseSchedule,
                       window: int, cpu=None) -> list[float]:
    """Drive a schedule through a controller, sampling hit rate per
    ``window`` requests — the observable trace of adaptation."""
    from ..sim.cpu import CpuModel
    cpu = cpu or CpuModel()
    now = 0.0
    hits = 0
    count = 0
    samples: list[float] = []
    for request in schedule.generate().replay():
        now += cpu.compute_ns(request.icount)
        result = controller.access(request, now)
        now += cpu.stall_ns(result.latency_ns)
        hits += result.hbm_hit
        count += 1
        if count == window:
            samples.append(hits / window)
            hits = 0
            count = 0
    return samples
