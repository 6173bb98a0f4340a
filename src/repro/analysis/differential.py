"""Differential replay: cross-check every trace execution path.

The simulator replays a :class:`~repro.traces.packed.PackedTrace` on
three paths — the scalar loop (``engine="scalar"``), the opt-in
checked loop, and the vectorized epoch engine
(:mod:`repro.sim.vectorized`; ``engine="vector"``, which falls back to
the scalar loop on a controller without ``batch_epoch_plan``).  All
three must produce bit-identical
:class:`~repro.sim.driver.SimResult`\\ s, at any epoch size.  This
harness replays randomized synthetic traces through every requested
design on all paths, diffs the results field by field, runs the
:class:`~repro.sanitize.InvariantChecker` over the checked replay, and
shrinks any failing trace to a minimal reproducer written to disk
(ddmin; see :mod:`repro.sanitize.shrink`).

Entry points: :func:`run_differential` (library) and the
``repro sanitize`` CLI subcommand.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..baselines import make_controller
from ..designs import registry
from ..mem.timing import DeviceConfig
from ..sanitize import InvariantChecker, shrink_trace
from ..sim.driver import SimResult, SimulationDriver
from ..traces.packed import PackedTrace, decode_entry, encode_entry
from ..traces.spec import SystemScale
from ..traces.synthetic import (
    GENERATOR_VERSION,
    SyntheticSpec,
    SyntheticTraceGenerator,
    derive_seed,
)
from .experiments import fitted_devices

import random

#: Every design the sanitizer cross-checks (``--designs all``): the
#: full registry in registration order — the Figure 8 comparison set,
#: every Figure 7 ablation bar, and the standalone controllers.  A new
#: ``@register_design`` / ``register_spec`` is covered automatically.
SANITIZE_DESIGNS = list(registry.names())

#: Default scale for differential runs: a small system (4MB HBM, 40MB
#: DRAM at 1/256) keeps sets few and contention high, so eviction, HMF,
#: and swap paths all trigger within a short trace.
DIFFERENTIAL_SCALE = SystemScale(1.0 / 256.0)


def random_spec(seed: int, hbm_config: DeviceConfig,
                dram_config: DeviceConfig) -> SyntheticSpec:
    """A randomized workload spec, deterministic in ``seed``.

    Knobs are drawn across their full meaningful ranges; the footprint
    spans from a sliver of HBM up to most of the combined capacity, so
    different seeds exercise cache-friendly, capacity-bound, and
    fault-heavy regimes.
    """
    rng = random.Random(derive_seed("differential-spec", seed))
    total = (hbm_config.geometry.capacity_bytes
             + dram_config.geometry.capacity_bytes)
    footprint = max(64 * 1024, int(total * rng.uniform(0.05, 0.85)))
    return SyntheticSpec(
        name=f"differential-{seed}",
        footprint_bytes=footprint // 64 * 64,
        spatial=rng.uniform(0.0, 1.0),
        temporal=rng.uniform(0.0, 1.0),
        mpki=rng.uniform(1.0, 40.0),
        write_fraction=rng.uniform(0.0, 0.5),
        hot_fraction=rng.uniform(0.005, 0.1),
    )


def diff_results(a: SimResult, b: SimResult,
                 ignore: Sequence[str] = ("controller",)) -> list[str]:
    """Field-by-field differences between two results (exact equality).

    Both paths replay identical request sequences through identical
    arithmetic, so *any* difference — float or int — is a divergence,
    and no tolerance is applied.
    """
    diffs: list[str] = []
    for f in dataclasses.fields(SimResult):
        if f.name in ignore:
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va != vb:
            diffs.append(f"{f.name}: {va!r} != {vb!r}")
    return diffs


@dataclass
class DiffCase:
    """Outcome of one (design, seed) differential check."""

    design: str
    seed: int
    workload: str
    requests: int
    diffs: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    reproducer: str | None = None

    @property
    def passed(self) -> bool:
        return not self.diffs and not self.violations


@dataclass
class DifferentialReport:
    """All cases of one differential sweep."""

    cases: list[DiffCase]
    epochs_checked: int = 0
    requests_checked: int = 0

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    @property
    def failures(self) -> list[DiffCase]:
        return [case for case in self.cases if not case.passed]

    def render(self) -> str:
        """A human-readable summary, one line per case."""
        lines = []
        for case in self.cases:
            status = "ok" if case.passed else "FAIL"
            detail = ""
            if not case.passed:
                problems = case.diffs + case.violations
                detail = f" ({len(problems)} problems"
                if case.reproducer:
                    detail += f"; reproducer: {case.reproducer}"
                detail += ")"
            lines.append(f"[{status}] {case.design:<12} seed {case.seed} "
                         f"{case.workload}{detail}")
        verdict = ("all checks passed" if self.passed
                   else f"{len(self.failures)} case(s) FAILED")
        lines.append(f"{len(self.cases)} cases, {self.requests_checked} "
                     f"requests checked, {self.epochs_checked} epochs: "
                     f"{verdict}")
        return "\n".join(lines)


def _replay_all_paths(design: str, trace: PackedTrace,
                      hbm_config: DeviceConfig, dram_config: DeviceConfig,
                      workload: str, warmup: int, epoch_requests: int,
                      vector_epoch: int | None = None
                      ) -> tuple[list[str], list[str], InvariantChecker]:
    """Run the scalar, checked, and epoch replays; return
    (diffs, violations, checker)."""
    scalar_result = SimulationDriver().run(
        make_controller(design, hbm_config, dram_config), trace,
        workload=workload, warmup=warmup, engine="scalar")
    checker = InvariantChecker(epoch_requests=epoch_requests)
    checked_result = SimulationDriver(checker=checker).run(
        make_controller(design, hbm_config, dram_config), trace,
        workload=workload, warmup=warmup)
    diffs = [f"checked-vs-scalar {d}"
             for d in diff_results(scalar_result, checked_result)]
    # A controller without batch_epoch_plan falls back to the scalar
    # loop, which keeps the equality trivially true and the sweep
    # uniform.
    epoch_result = SimulationDriver(vector_epoch=vector_epoch).run(
        make_controller(design, hbm_config, dram_config), trace,
        workload=workload, warmup=warmup, engine="vector")
    diffs += [f"epoch-vs-scalar {d}"
              for d in diff_results(scalar_result, epoch_result)]
    return diffs, list(checker.violations), checker


def _case_fails(design: str, trace: PackedTrace,
                hbm_config: DeviceConfig, dram_config: DeviceConfig,
                warmup: int, epoch_requests: int,
                vector_epoch: int | None = None) -> bool:
    diffs, violations, _ = _replay_all_paths(
        design, trace, hbm_config, dram_config, "shrink", warmup,
        epoch_requests, vector_epoch)
    return bool(diffs or violations)


def write_reproducer(path: Path, trace: PackedTrace,
                     metadata: dict) -> None:
    """Persist a failing trace as a trace entry, with a ``.json``
    sidecar holding the full failure context."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encode_entry(trace))
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps(metadata, indent=2, default=str))


def load_reproducer(path: str | Path) -> tuple[PackedTrace, dict]:
    """Load a reproducer written by :func:`write_reproducer`.

    Returns:
        The packed trace and the sidecar metadata (empty dict when the
        sidecar is missing).

    Raises:
        ValueError: on a corrupt entry (malformed header, digest or
            count mismatch).
    """
    path = Path(path)
    try:
        trace = decode_entry(path.read_bytes())
    except ValueError as exc:
        raise ValueError(f"reproducer {path}: {exc}") from exc
    sidecar = path.with_suffix(path.suffix + ".json")
    metadata = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    return trace, metadata


def _safe_name(design: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in design)


def run_differential(designs: Sequence[str] | None = None,
                     seeds: int = 3,
                     requests: int = 20_000,
                     warmup: int = 4_000,
                     epoch_requests: int = 1024,
                     scale: SystemScale = DIFFERENTIAL_SCALE,
                     out_dir: str | Path = "sanitize-failures",
                     shrink_budget: int = 60,
                     shrink_seconds: "float | None" = 120.0,
                     progress: Callable[[str], None] | None = None,
                     vector_epoch: int | None = None
                     ) -> DifferentialReport:
    """Cross-check every (design, seed) pair on all execution paths.

    For each pair a randomized synthetic trace is replayed through the
    scalar loop, the sanitizer-checked loop, and the vectorized epoch
    engine (scalar fallback on a controller without
    ``batch_epoch_plan``); any result divergence or invariant violation
    fails the case, and the failing trace is ddmin-shrunk (at ``warmup=0`` when the failure
    survives without warm-up) to a minimal reproducer under
    ``out_dir``.

    Args:
        designs: Design names (default: :data:`SANITIZE_DESIGNS`).
        seeds: Number of randomized traces per design (seeds 0..n-1).
        requests: Trace length per case (measured + warm-up).
        warmup: Warm-up request count passed to the driver.
        epoch_requests: Sanitizer epoch granularity.
        scale: System scale of the simulated machine.
        out_dir: Where failing reproducers are written.
        shrink_budget: Max predicate evaluations spent shrinking one
            failing case (each evaluation re-simulates three paths).
        shrink_seconds: Wall-clock budget per shrink; on expiry the
            best-so-far reduction is persisted (None = no time bound).
        progress: Optional per-case sink (e.g. ``print``).
        vector_epoch: Epoch size for the vectorized leg (None = the
            engine default); small values stress cross-epoch carries.
    """
    # Case order comes from the execution plane's cell enumeration so
    # "the n-th sanitize case" is the same design-major coordinate a
    # campaign would run n-th.
    from ..exec.plan import enumerate_cells
    designs = list(designs) if designs else list(SANITIZE_DESIGNS)
    hbm_config, dram_config = fitted_devices(scale)
    cases: list[DiffCase] = []
    epochs = 0
    checked = 0
    for design, seed in enumerate_cells(designs, range(seeds)):
        spec = random_spec(seed, hbm_config, dram_config)
        trace = SyntheticTraceGenerator(
            spec, seed=derive_seed("differential-trace", seed)
        ).generate_packed(requests)
        diffs, violations, checker = _replay_all_paths(
            design, trace, hbm_config, dram_config, spec.name,
            warmup, epoch_requests, vector_epoch)
        epochs += checker.epochs_checked
        checked += checker.requests_checked
        case = DiffCase(design=design, seed=seed, workload=spec.name,
                        requests=requests, diffs=diffs,
                        violations=violations)
        if not case.passed:
            case.reproducer = str(_shrink_and_write(
                design, seed, trace, case, hbm_config, dram_config,
                warmup, epoch_requests, Path(out_dir), shrink_budget,
                shrink_seconds, vector_epoch))
        cases.append(case)
        if progress is not None:
            status = "ok" if case.passed else "FAIL"
            progress(f"[{status}] {design} seed {seed}: "
                     f"{len(diffs)} diffs, {len(violations)} "
                     f"violations")
    return DifferentialReport(cases=cases, epochs_checked=epochs,
                              requests_checked=checked)


def _shrink_and_write(design: str, seed: int, trace: PackedTrace,
                      case: DiffCase, hbm_config: DeviceConfig,
                      dram_config: DeviceConfig, warmup: int,
                      epoch_requests: int, out_dir: Path,
                      shrink_budget: int,
                      shrink_seconds: "float | None" = None,
                      vector_epoch: int | None = None) -> Path:
    """Shrink a failing case and persist the minimal reproducer."""
    # Shrinking below the warm-up length is impossible while the
    # boundary reset participates, so prefer reproducing without it.
    shrink_warmup = warmup
    if warmup and _case_fails(design, trace, hbm_config, dram_config,
                              0, epoch_requests, vector_epoch):
        shrink_warmup = 0
    minimal = shrink_trace(
        trace,
        lambda t: _case_fails(design, t, hbm_config, dram_config,
                              shrink_warmup, epoch_requests, vector_epoch),
        max_tests=shrink_budget, max_seconds=shrink_seconds)
    path = out_dir / f"{_safe_name(design)}_seed{seed}.repro.trace"
    write_reproducer(path, minimal, {
        "design": design,
        "seed": seed,
        "workload": case.workload,
        "spec": dataclasses.asdict(
            random_spec(seed, hbm_config, dram_config)),
        "warmup": shrink_warmup,
        "epoch_requests": epoch_requests,
        "original_requests": len(trace),
        "shrunk_requests": len(minimal),
        "generator_version": GENERATOR_VERSION,
        "diffs": case.diffs,
        "violations": case.violations,
    })
    return path
