"""Trace-engine benchmarks: packed streams, the on-disk trace cache,
and the warm-cache campaign speedup.

Three artefacts land in ``bench_artifacts.txt``:

* trace-path throughput — the cost of *acquiring and draining* one miss
  stream: legacy object generation + iteration vs cold packed
  generation vs a warm trace-cache load replayed through the
  zero-allocation path.  The warm path is gated at >=2x over legacy
  (it measures ~4-5x on the reference container);
* end-to-end warm-cache campaign — a multi-design, single-workload
  matrix executed the way PR 1's pool runs it with ``jobs >= cells``
  (every cell on a fresh worker, which regenerates the trace and
  re-simulates the no-HBM baseline) vs the same matrix on fresh
  harnesses sharing a warm trace cache and persisted baseline records.
  The measured speedup is emitted (>=2x on the reference container) and
  gated at a generous >=1.4x floor so slow or noisy CI hardware reports
  rather than flakes — the same discipline as
  ``test_perf_throughput.py``;
* the trace-cache observability counters behind the warm leg,
  asserting each stream was synthesised at most once;
* vectorized replay throughput — the same warm packed stream driven
  through the scalar reference loop vs the epoch engine on No-HBM,
  with the results asserted bit-identical.  The
  kernel measures ~9x on the reference container and is gated at >=4x
  (the acceptance claim is >=5x; the floor sits below it so noisy CI
  hardware reports rather than flakes, while the emitted artefact
  carries the real number).
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

from repro.analysis.experiments import ExperimentHarness
from repro.analysis.resultcache import ResultCache
from repro.designs import registry
from repro.sim.driver import SimulationDriver
from repro.traces import SyntheticTraceGenerator, TraceCache, synthetic_spec
from repro.traces.packed import PackedTrace

from conftest import emit

#: The warm trace path must beat legacy object generation by at least
#: this factor (measures ~4-5x; the gate catches structural regressions
#: without flaking on noisy hardware).
MIN_TRACE_PATH_SPEEDUP = 2.0

#: Floor for the end-to-end warm-cache campaign speedup (measures ~2x;
#: see the module docstring for why the gate sits below the claim).
MIN_CAMPAIGN_SPEEDUP = 1.4

#: Floor for the vectorized batch kernel over the scalar reference loop
#: on a warm packed stream (measures ~9x; claim: >=5x).
MIN_VECTOR_SPEEDUP = 4.0

#: Floor for the warm Figure-8 campaign (all six comparison designs)
#: with auto-selected engines over the forced scalar loop.  Since the
#: two-pass epoch engine every feedback design now vectorizes through,
#: the whole comparison matrix — not just the stateless baselines —
#: rides the batch kernels (measures ~3.1-3.5x; best-of-N timing damps
#: machine noise).
MIN_FIG8_CAMPAIGN_SPEEDUP = 3.0

VECTOR_DESIGN = "No-HBM"

CAMPAIGN_WORKLOAD = "leela"
CAMPAIGN_DESIGNS = ("Banshee", "Chameleon", "Bumblebee")


def _drain(iterable) -> int:
    count = 0
    for _ in iterable:
        count += 1
    return count


def test_trace_path_throughput(harness, tmp_path: Path):
    """Warm cache + packed replay >=2x legacy generation + iteration."""
    spec = synthetic_spec(CAMPAIGN_WORKLOAD, harness.config.scale)
    n = harness.config.requests + harness.config.warmup
    seed = harness.config.seed

    start = time.perf_counter()
    objects = SyntheticTraceGenerator(spec, seed=seed).generate(n)
    _drain(objects)
    legacy_s = time.perf_counter() - start

    cache = TraceCache(tmp_path / "traces")
    start = time.perf_counter()
    cold = cache.get_or_generate(spec, n, seed)
    _drain(cold.replay())
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = cache.get_or_generate(spec, n, seed)
    assert _drain(warm.replay()) == n
    warm_s = time.perf_counter() - start

    assert warm == PackedTrace.from_requests(objects), \
        "packed stream diverged from the legacy object stream"
    speedup = legacy_s / warm_s
    emit(f"trace path: acquire + drain {n:,} requests ({CAMPAIGN_WORKLOAD})",
         f"{'objects (PR 1)':>22}: {legacy_s:8.3f} s\n"
         f"{'packed, cold cache':>22}: {cold_s:8.3f} s\n"
         f"{'packed, warm cache':>22}: {warm_s:8.3f} s\n"
         f"{'warm speedup':>22}: {speedup:8.2f}x (gate: "
         f">={MIN_TRACE_PATH_SPEEDUP:.0f}x)",
         data={"legacy_s": legacy_s, "cold_s": cold_s,
               "warm_s": warm_s, "speedup": speedup},
         slug="trace_path")
    assert speedup >= MIN_TRACE_PATH_SPEEDUP, (
        f"warm trace path only {speedup:.2f}x over legacy generation")


def test_warm_campaign_speedup(harness, tmp_path: Path):
    """End-to-end multi-design campaign: warm caches vs PR 1 pattern.

    The PR 1 leg reproduces what each pool worker paid per cell when
    ``jobs >= cells``: synthesise the trace, run the no-HBM baseline,
    then the design itself, both on the scalar loop.  The warm leg runs the identical
    cells on fresh harnesses (one per cell, the same worker model)
    backed by a pre-warmed trace cache and persisted baseline records.
    """
    config = dataclasses.replace(
        harness.config, workloads=(CAMPAIGN_WORKLOAD,),
        trace_cache_dir=str(tmp_path / "traces"))
    spec = synthetic_spec(CAMPAIGN_WORKLOAD, config.scale)
    n = config.requests + config.warmup

    # --- PR 1 leg: every cell pays generation + baseline + design.
    pr1_s = 0.0
    pr1_results = {}
    for design in CAMPAIGN_DESIGNS:
        start = time.perf_counter()
        trace = SyntheticTraceGenerator(
            spec, seed=config.seed).generate_packed(n)
        driver = SimulationDriver(config.cpu)
        probe = ExperimentHarness(dataclasses.replace(
            config, trace_cache_dir="off"))
        baseline = driver.run(
            registry.build("No-HBM", probe.hbm_config, probe.dram_config),
            trace, workload=CAMPAIGN_WORKLOAD, warmup=config.warmup,
            engine="scalar")
        controller = registry.build(
            design, probe.hbm_config, probe.dram_config,
            sram_bytes=config.scale.sram_bytes)
        result = driver.run(controller, trace,
                            workload=CAMPAIGN_WORKLOAD,
                            warmup=config.warmup, engine="scalar")
        pr1_results[design] = result.normalised_ipc(baseline)
        pr1_s += time.perf_counter() - start

    # --- one-time priming (amortised across every later worker/session).
    cache_root = tmp_path / "results"
    start = time.perf_counter()
    primer = ExperimentHarness(config, cache=ResultCache(cache_root))
    primer.baseline(CAMPAIGN_WORKLOAD)
    prime_s = time.perf_counter() - start

    # --- warm leg: fresh harness per cell, shared warm caches.
    warm_s = 0.0
    warm_results = {}
    counters = None
    for design in CAMPAIGN_DESIGNS:
        start = time.perf_counter()
        worker = ExperimentHarness(config, cache=ResultCache(cache_root))
        comparison = worker.run_design(design, CAMPAIGN_WORKLOAD)
        warm_results[design] = comparison.norm_ipc
        warm_s += time.perf_counter() - start
        counters = worker.trace_cache.counters()
        assert counters["generated"] == 0, \
            "warm worker re-synthesised a cached trace"
        assert counters["hits"] == 1 and counters["misses"] == 0

    assert warm_results == pr1_results, \
        "warm-cache campaign changed the simulated results"
    speedup = pr1_s / warm_s
    emit(f"warm-cache campaign ({len(CAMPAIGN_DESIGNS)} designs x "
         f"{CAMPAIGN_WORKLOAD}, worker per cell)",
         f"{'PR 1 pattern':>22}: {pr1_s:8.2f} s "
         f"(gen + baseline + design per cell)\n"
         f"{'warm caches':>22}: {warm_s:8.2f} s "
         f"(+ {prime_s:.2f} s one-time priming)\n"
         f"{'speedup':>22}: {speedup:8.2f}x (claim: >=2x on the "
         f"reference container; gate: >={MIN_CAMPAIGN_SPEEDUP}x)\n"
         f"{'trace cache':>22}: {counters['hits']} hit(s)/worker, "
         f"{counters['bytes_read']:,} B read, 0 generated",
         data={"pr1_s": pr1_s, "warm_s": warm_s, "prime_s": prime_s,
               "speedup": speedup},
         slug="warm_campaign")
    assert speedup >= MIN_CAMPAIGN_SPEEDUP, (
        f"warm campaign only {speedup:.2f}x over the PR 1 pattern")


def test_vectorized_replay_speedup(harness, tmp_path: Path):
    """No-HBM on the epoch engine >=4x the scalar loop on a warm packed
    stream, bit-identical results.  Its plan scripts nothing, so this
    measures the walk itself."""
    spec = synthetic_spec(CAMPAIGN_WORKLOAD, harness.config.scale)
    n = harness.config.requests + harness.config.warmup
    trace = TraceCache(tmp_path / "traces").get_or_generate(
        spec, n, harness.config.seed)

    def _replay(engine: str):
        driver = SimulationDriver(harness.config.cpu)
        controller = registry.build(
            VECTOR_DESIGN, harness.hbm_config, harness.dram_config,
            sram_bytes=harness.config.scale.sram_bytes)
        start = time.perf_counter()
        result = driver.run(controller, trace,
                            workload=CAMPAIGN_WORKLOAD,
                            warmup=harness.config.warmup, engine=engine)
        return result, time.perf_counter() - start, driver

    # Warm both code paths once (first calls pay allocator/GC setup),
    # then take the best of two timed runs per engine.
    _replay("scalar")
    _replay("vector")
    scalar_result, scalar_s, _ = min(
        (_replay("scalar") for _ in range(2)), key=lambda r: r[1])
    vector_result, vector_s, driver = min(
        (_replay("vector") for _ in range(2)), key=lambda r: r[1])

    assert driver.last_engine == "vector", \
        f"{VECTOR_DESIGN} fell back to the scalar loop"
    assert vector_result == scalar_result, \
        "vectorized replay diverged from the scalar reference loop"
    speedup = scalar_s / vector_s
    emit(f"vectorized replay: {n:,} requests ({VECTOR_DESIGN}, "
         f"{CAMPAIGN_WORKLOAD}, warm packed stream)",
         f"{'scalar loop':>22}: {scalar_s:8.3f} s\n"
         f"{'vector kernel':>22}: {vector_s:8.3f} s "
         f"({driver.last_vector_epochs} epochs)\n"
         f"{'speedup':>22}: {speedup:8.2f}x (claim: >=5x on the "
         f"reference container; gate: >={MIN_VECTOR_SPEEDUP:.0f}x)",
         data={"scalar_s": scalar_s, "vector_s": vector_s,
               "speedup": speedup},
         slug="vectorized_replay")
    assert speedup >= MIN_VECTOR_SPEEDUP, (
        f"vectorized replay only {speedup:.2f}x over the scalar loop")


def test_fig8_campaign_vector_speedup(harness, tmp_path: Path):
    """Whole Figure-8 comparison set, vectorized vs scalar, >=3x.

    Every design in the paper's main comparison is replayed twice over
    the same warm packed stream: once through the forced scalar
    reference loop and once with ``engine="auto"``, which selects the
    two-pass epoch engine (``batch_epoch_plan``) for all six designs,
    Bumblebee included.  Results are asserted
    bit-identical per design; each leg is the best of three timed runs
    so the end-to-end gate measures the engines, not scheduler noise.
    """
    designs = registry.figure_names("fig8")
    spec = synthetic_spec(CAMPAIGN_WORKLOAD, harness.config.scale)
    n = harness.config.requests + harness.config.warmup
    trace = TraceCache(tmp_path / "traces").get_or_generate(
        spec, n, harness.config.seed)

    def _replay(design: str, engine: str):
        driver = SimulationDriver(harness.config.cpu)
        controller = registry.build(
            design, harness.hbm_config, harness.dram_config,
            sram_bytes=harness.config.scale.sram_bytes)
        start = time.perf_counter()
        result = driver.run(controller, trace,
                            workload=CAMPAIGN_WORKLOAD,
                            warmup=harness.config.warmup, engine=engine)
        return result, time.perf_counter() - start, driver

    scalar_s = vector_s = 0.0
    lines = []
    for design in designs:
        scalar_result, design_scalar_s, _ = min(
            (_replay(design, "scalar") for _ in range(3)),
            key=lambda r: r[1])
        vector_result, design_vector_s, driver = min(
            (_replay(design, "auto") for _ in range(3)),
            key=lambda r: r[1])
        assert driver.last_engine == "vector", \
            f"{design} fell back to the scalar loop " \
            f"({driver.last_fallback_reason})"
        assert vector_result == scalar_result, \
            f"{design}: vectorized replay diverged from the scalar loop"
        scalar_s += design_scalar_s
        vector_s += design_vector_s
        lines.append(f"{design:>22}: {design_scalar_s:7.3f} s -> "
                     f"{design_vector_s:7.3f} s "
                     f"({design_scalar_s / design_vector_s:5.2f}x)")
    speedup = scalar_s / vector_s
    emit(f"warm fig8 campaign: {len(designs)} designs x {n:,} requests "
         f"({CAMPAIGN_WORKLOAD}), scalar vs vectorized",
         "\n".join(lines) + "\n"
         f"{'total':>22}: {scalar_s:7.3f} s -> {vector_s:7.3f} s "
         f"({speedup:5.2f}x, gate: >={MIN_FIG8_CAMPAIGN_SPEEDUP:.0f}x)",
         data={"scalar_s": scalar_s, "vector_s": vector_s,
               "speedup": speedup},
         slug="fig8_campaign")
    assert speedup >= MIN_FIG8_CAMPAIGN_SPEEDUP, (
        f"vectorized fig8 campaign only {speedup:.2f}x over the scalar "
        f"loop")
