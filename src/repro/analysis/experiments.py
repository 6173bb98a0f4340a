"""One entry point per table and figure of the paper's evaluation.

The :class:`ExperimentHarness` owns the scaled system configuration,
materialises each workload's trace once, caches the no-HBM baseline runs,
and exposes a method per paper artefact:

===========================  ===========================================
Paper artefact               Harness method
===========================  ===========================================
Figure 1                     :meth:`figure1_line_utilisation`
Table II (measured)          :meth:`table2_characteristics`
Figure 6                     :meth:`figure6_design_space`
§IV-B metadata budget        :meth:`sec4b_metadata`
§IV-B over-fetch             :meth:`sec4b_overfetch`
Figure 7                     :meth:`figure7_breakdown`
Figure 8 (a-d)               :meth:`figure8_comparison`
§IV-D overhead reductions    :meth:`sec4d_overheads`
===========================  ===========================================

Benchmarks under ``benchmarks/`` are thin wrappers over these methods.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..baselines import FIGURE7_VARIANTS, FIGURE8_DESIGNS, make_controller
from ..designs import DesignSpec, registry
from ..cache.utilisation import FIG1_LINE_SIZES, UtilisationResult, characterise
from ..core.config import BumblebeeConfig, check_int, derive_geometry
from ..core.metadata import (
    SRAM_BUDGET_BYTES,
    MetadataSizes,
    alloy_metadata_bytes,
    chameleon_metadata_bytes,
    hybrid2_metadata_bytes,
    metadata_sizes,
)
from ..mem.timing import DeviceConfig, ddr4_3200_config, hbm2_config
from ..sim.cpu import CpuModel
from ..sim.driver import SimResult, SimulationDriver
from ..traces.spec import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    SPEC2017,
    SystemScale,
    synthetic_spec,
)
from ..traces.packed import PackedTrace
from ..traces.synthetic import SyntheticTraceGenerator
from ..traces.tracecache import TraceCache, resolve_trace_cache
from .metrics import (
    GroupSummary,
    WorkloadComparison,
    compare,
    geomean_speedup,
    summarise_group,
)
from .resultcache import ResultCache

KIB = 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of every experiment run.

    ``trace_cache_dir`` selects the on-disk packed-trace cache (see
    :func:`~repro.traces.tracecache.resolve_trace_cache` for the
    accepted values); it cannot change any simulated result — the cache
    stores byte-identical streams — so it is deliberately *excluded*
    from result-cache keys, and it rides the frozen config into worker
    processes so every ``--jobs`` worker shares one store.

    ``engine`` selects the replay engine passed to every
    :meth:`~repro.sim.driver.SimulationDriver.run` ("auto", "scalar",
    or "vector"; see :mod:`repro.sim.vectorized`).  Like the trace
    cache it cannot change any simulated result — the vectorized
    kernel is bit-identical to the scalar loop — so it is likewise
    excluded from result-cache keys, and it rides the frozen config
    into ``--jobs`` worker processes.
    """

    scale: SystemScale = DEFAULT_SCALE
    requests: int = 120_000
    warmup: int = 60_000
    seed: int = 1234
    cpu: CpuModel = CpuModel()
    workloads: tuple[str, ...] = tuple(SPEC2017)
    trace_cache_dir: str | None = None
    engine: str = "auto"


def fitted_devices(scale: SystemScale, page_bytes: int = 64 * KIB,
                   hbm_ways: int = 8) -> tuple[DeviceConfig, DeviceConfig]:
    """Device configs whose capacities tile exactly into remapping sets.

    Page sizes such as 96KB do not divide power-of-two capacities; both
    memories are rounded down to the nearest whole-set multiple, exactly
    as a real controller would leave a sliver of a stack unmanaged.

    Raises:
        ValueError: for a ``page_bytes`` or ``hbm_ways`` that is not a
            positive integer.
    """
    check_int("page_bytes", page_bytes)
    check_int("hbm_ways", hbm_ways)
    set_bytes = page_bytes * hbm_ways
    hbm_bytes = max(set_bytes, scale.hbm_bytes // set_bytes * set_bytes)
    sets = hbm_bytes // set_bytes
    dram_stride = page_bytes * sets
    dram_bytes = max(dram_stride,
                     scale.dram_bytes // dram_stride * dram_stride)
    return hbm2_config(hbm_bytes), ddr4_3200_config(dram_bytes)


class ExperimentHarness:
    """Runs and caches everything the paper's evaluation needs.

    Args:
        config: Shared experiment knobs (scale, window, seed, ...).
        cache: Optional persistent :class:`ResultCache`.  When given,
            design-cell comparison records are looked up by the
            content hash of their full input description before any
            simulation runs, and stored after; records round-trip
            bit-identically, so cached and fresh results are equal.
    """

    def __init__(self, config: ExperimentConfig | None = None,
                 cache: ResultCache | None = None) -> None:
        self.config = config or ExperimentConfig()
        self.cache = cache
        self.trace_cache: TraceCache | None = resolve_trace_cache(
            self.config.trace_cache_dir)
        self.hbm_config, self.dram_config = fitted_devices(self.config.scale)
        self._devices: dict[tuple[int, int],
                            tuple[DeviceConfig, DeviceConfig]] = {
            (64 * KIB, 8): (self.hbm_config, self.dram_config)}
        self.driver = SimulationDriver(self.config.cpu)
        self.gen_seconds = 0.0
        self._traces: dict[str, PackedTrace] = {}
        self._baselines: dict[str, SimResult] = {}
        self._comparisons: dict[tuple[DesignSpec, str],
                                WorkloadComparison] = {}
        self._cell_timings: dict[tuple[str, str], dict[str, float]] = {}
        self._dumps: dict = {}
        self._encoded_designs: dict[DesignSpec, dict[str, str]] = {}
        self._encoded_workloads: dict[str, dict[str, str]] = {}

    # ---- shared plumbing -------------------------------------------------

    def _dump(self, value) -> dict:
        """``dataclasses.asdict(value)`` of one frozen key input, built
        once per distinct value.

        Memoized by value (frozen dataclasses hash by their fields), so
        a page-size refit of the devices gets its own entry.  The dump
        is shared: key builders only read it, and :meth:`_key_fields`
        hands out copies.
        """
        dump = self._dumps.get(value)
        if dump is None:
            dump = self._dumps[value] = dataclasses.asdict(value)
        return dump

    def _key_fields(self, workload: str) -> dict:
        """Common cache-key components of any run on ``workload``.

        A fresh dict each call, nested dumps included, so a caller that
        edits it cannot reach the memoized dumps behind later keys.
        """
        # Lazy import: repro/__init__ pulls in this module's package.
        from .. import __version__
        c = self.config
        return {
            "workload": workload,
            "spec": dict(self._dump(SPEC2017[workload])),
            "scale": c.scale.factor,
            "requests": c.requests,
            "warmup": c.warmup,
            "seed": c.seed,
            "cpu": dict(self._dump(c.cpu)),
            "version": __version__,
        }

    def _encoded_key_fields(self, workload: str) -> dict[str, str]:
        """:meth:`_key_fields` pre-encoded for
        :meth:`ResultCache.key_for_encoded`, once per workload."""
        encoded = self._encoded_workloads.get(workload)
        if encoded is None:
            encoded = self._encoded_workloads[workload] = \
                ResultCache.encode_fields(**self._key_fields(workload))
        return encoded

    @staticmethod
    def _resolve_spec(design: "str | DesignSpec") -> DesignSpec:
        """Normalise a design name or spec to a :class:`DesignSpec`."""
        return registry.resolve(design)

    @staticmethod
    def _timing_label(design: "str | DesignSpec") -> str:
        """The observability label of one design cell."""
        return design.name if isinstance(design, DesignSpec) else design

    def devices(self, design: "str | DesignSpec"
                ) -> tuple[DeviceConfig, DeviceConfig]:
        """The (HBM, DRAM) configs one design cell runs on.

        The harness devices refit to the spec's ``page_bytes`` /
        ``hbm_ways`` overrides (memoized per pair), so a page size such
        as 96KB tiles into whole remapping sets.  Specs without those
        overrides — and every size that already tiles the harness
        capacities — get device configs equal to the harness's own.
        """
        spec = self._resolve_spec(design)
        fit = (spec.get("page_bytes", 64 * KIB), spec.get("hbm_ways", 8))
        devices = self._devices.get(fit)
        if devices is None:
            devices = self._devices[fit] = fitted_devices(
                self.config.scale, *fit)
        return devices

    def _comparison_key(self, design: "str | DesignSpec",
                        workload: str) -> str:
        """Cache key of one design-spec cell.

        The key incorporates the spec's canonical dump *and* its stable
        hash, so two parameterisations of one base design can never
        collide — keying on the display name alone would let e.g. two
        ``chbm_ratio`` points of a sweep alias each other's records.
        """
        spec = self._resolve_spec(design)
        encoded = self._encoded_designs.get(spec)
        if encoded is None:
            hbm, dram = self.devices(spec)
            encoded = self._encoded_designs[spec] = \
                ResultCache.encode_fields(
                    kind="design",
                    design=spec.name,
                    design_spec=spec.to_dict(),
                    design_spec_hash=spec.spec_hash,
                    hbm=self._dump(hbm),
                    dram=self._dump(dram),
                    sram_bytes=self.config.scale.sram_bytes)
        return ResultCache.key_for_encoded(
            {**encoded, **self._encoded_key_fields(workload)})

    def cache_put(self, key: str, record) -> None:
        """Store into the persistent cache, degrading gracefully.

        A full or failing disk must never abort a campaign: the cache
        is an accelerator, not a correctness dependency, so the first
        ``OSError`` on a write disables it for the rest of this
        harness's life (with a warning on stderr) and simulation
        continues uncached.
        """
        if self.cache is None:
            return
        try:
            self.cache.put(key, record)
        except OSError as exc:
            print(f"warning: result cache disabled after write "
                  f"failure: {exc}", file=sys.stderr)
            self.cache = None

    def cached_comparison(self, design: "str | DesignSpec",
                          workload: str) -> WorkloadComparison | None:
        """The cell's comparison from memory or the persistent cache.

        Returns None when the cell has not been computed (no simulation
        is triggered).
        """
        spec = self._resolve_spec(design)
        key = (spec, workload)
        if key in self._comparisons:
            return self._comparisons[key]
        if self.cache is not None:
            record = self.cache.get(self._comparison_key(spec, workload))
            if record is not None:
                comparison = WorkloadComparison(**record)
                self._comparisons[key] = comparison
                return comparison
        return None

    def absorb_comparison(self, design: "str | DesignSpec", workload: str,
                          record: dict) -> WorkloadComparison:
        """Adopt a comparison computed elsewhere (a worker process).

        The record (a :meth:`WorkloadComparison.to_record` dump) lands
        in the in-memory cell cache and, when configured, the persistent
        cache — exactly as if this harness had simulated the cell
        itself.
        """
        spec = self._resolve_spec(design)
        comparison = WorkloadComparison(**record)
        self._comparisons[(spec, workload)] = comparison
        if self.cache is not None:
            self.cache_put(self._comparison_key(spec, workload), record)
        return comparison

    def _packed_trace(self, spec, n: int) -> PackedTrace:
        """Generate (or load) one packed stream, charging gen time."""
        start = time.perf_counter()
        if self.trace_cache is not None:
            packed = self.trace_cache.get_or_generate(spec, n,
                                                      self.config.seed)
        else:
            packed = SyntheticTraceGenerator(
                spec, seed=self.config.seed).generate_packed(n)
        self.gen_seconds += time.perf_counter() - start
        return packed

    def trace(self, workload: str) -> PackedTrace:
        """The workload's packed miss stream (cached).

        Packed streams replay through the driver's zero-allocation fast
        path and are bit-identical to the request lists earlier versions
        materialised; with a trace cache configured they are synthesised
        at most once *per machine*, not once per process.
        """
        if workload not in self._traces:
            self._traces[workload] = self._packed_trace(
                synthetic_spec(workload, self.config.scale),
                self.config.requests + self.config.warmup)
        return self._traces[workload]

    def _baseline_key(self, workload: str) -> str:
        """Cache key of one no-HBM baseline run."""
        return ResultCache.key_for(
            kind="baseline",
            hbm=self._dump(self.hbm_config),
            dram=self._dump(self.dram_config),
            **self._key_fields(workload))

    def baseline(self, workload: str) -> SimResult:
        """The no-HBM run every metric normalises against (cached).

        With a persistent :class:`ResultCache` configured the full
        :class:`SimResult` record is stored under a content-hash key, so
        repeated sessions — and each of a campaign's worker processes —
        load the baseline instead of re-simulating it.  Records
        round-trip bit-identically (pinned by tests).
        """
        if workload not in self._baselines:
            key = (self._baseline_key(workload)
                   if self.cache is not None else None)
            if key is not None:
                record = self.cache.get(key)
                if record is not None:
                    self._baselines[workload] = SimResult.from_record(
                        record)
                    return self._baselines[workload]
            controller = make_controller("No-HBM", self.hbm_config,
                                         self.dram_config)
            result = self.driver.run(
                controller, self.trace(workload), workload=workload,
                warmup=self.config.warmup, engine=self.config.engine)
            self._baselines[workload] = result
            if key is not None:
                self.cache_put(key, result.to_record())
        return self._baselines[workload]

    def _timing_start(self) -> tuple:
        """Snapshot wall clock, gen time, and trace-cache counters."""
        counters = (self.trace_cache.counters()
                    if self.trace_cache is not None else None)
        return time.perf_counter(), self.gen_seconds, counters

    def _record_timing(self, design: "str | DesignSpec", workload: str,
                       snapshot: tuple,
                       engine: dict[str, float] | None = None) -> None:
        """Store one cell's generation/simulation split and cache deltas."""
        start, gen_before, counters_before = snapshot
        elapsed = time.perf_counter() - start
        gen_s = self.gen_seconds - gen_before
        timing: dict[str, float] = {
            "gen_s": gen_s, "sim_s": max(elapsed - gen_s, 0.0)}
        after = (self.trace_cache.counters()
                 if self.trace_cache is not None else None)
        for name in ("hits", "misses", "generated", "bytes_read",
                     "bytes_written"):
            delta = (after[name] - counters_before[name]
                     if after is not None and counters_before is not None
                     else 0)
            timing[f"trace_{name}"] = delta
        if engine is not None:
            timing.update(engine)
        self._cell_timings[(self._timing_label(design), workload)] = timing

    def _engine_timing(self) -> dict[str, float]:
        """The driver's engine choice for the run that just finished, as
        numeric timing keys (``Campaign.timing_summary`` sums every
        timing value, so engine choice is encoded as 0/1 indicators and
        epoch counts rather than strings).  ``policy_requests`` counts
        the requests the two-pass epoch engine's pass 1 ran through
        ``controller.access`` (0 on the scalar loop).  A scalar
        cell additionally carries a ``fallback_<reason>`` indicator
        (hyphens as underscores, e.g.
        ``fallback_engine_forced_scalar``) so a campaign summary
        shows not just *how many* cells fell back but *why*.  Cells
        served from a cache never simulated, so they carry no engine
        keys at all."""
        driver = self.driver
        timing = {
            "engine_vector": 1.0 if driver.last_engine == "vector"
            else 0.0,
            "engine_scalar": 0.0 if driver.last_engine == "vector"
            else 1.0,
            "vector_epochs": float(driver.last_vector_epochs),
            "scalar_epochs": float(driver.last_scalar_epochs),
            "policy_requests": float(driver.last_policy_requests),
        }
        if driver.last_fallback_reason is not None:
            reason = driver.last_fallback_reason.replace("-", "_")
            timing[f"fallback_{reason}"] = 1.0
        return timing

    def cell_timing(self, design: "str | DesignSpec",
                    workload: str) -> dict[str, float]:
        """One cell's observability record: wall-time split between trace
        generation (``gen_s``) and simulation (``sim_s``), plus the
        cell's trace-cache counter deltas (``trace_hits`` etc.).  Cells
        this harness has not timed report zeros."""
        timing = self._cell_timings.get(
            (self._timing_label(design), workload))
        if timing is None:
            timing = {"gen_s": 0.0, "sim_s": 0.0}
            timing.update({f"trace_{name}": 0
                           for name in ("hits", "misses", "generated",
                                        "bytes_read", "bytes_written")})
        return dict(timing)

    def adopt_timing(self, design: "str | DesignSpec", workload: str,
                     timing: dict[str, float]) -> None:
        """Adopt a cell timing measured elsewhere (a worker process)."""
        self._cell_timings[(self._timing_label(design),
                            workload)] = dict(timing)

    def run_design(self, design: "str | DesignSpec",
                   workload: str) -> WorkloadComparison:
        """Run one design — a registered name or a :class:`DesignSpec` —
        on one workload, normalised (cached: repeated figures share the
        same deterministic run, and the persistent cache — when
        configured — spans processes under spec-hash keys)."""
        spec = self._resolve_spec(design)
        snapshot = self._timing_start()
        cached = self.cached_comparison(spec, workload)
        if cached is not None:
            self._record_timing(spec.name, workload, snapshot)
            return cached
        controller = registry.build(
            spec, *self.devices(spec),
            sram_bytes=self.config.scale.sram_bytes)
        result = self.driver.run(controller, self.trace(workload),
                                 workload=workload,
                                 warmup=self.config.warmup,
                                 engine=self.config.engine)
        # Capture the engine choice before baseline() can overwrite the
        # driver's last-run bookkeeping with its own (No-HBM) run.
        engine = self._engine_timing()
        comparison = compare(result, self.baseline(workload))
        self._comparisons[(spec, workload)] = comparison
        if self.cache is not None:
            self.cache_put(self._comparison_key(spec, workload),
                           comparison.to_record())
        self._record_timing(spec.name, workload, snapshot, engine=engine)
        return comparison

    # ---- Figure 1 ---------------------------------------------------------

    def figure1_line_utilisation(
            self, workloads: Sequence[str] = ("mcf", "wrf", "xz"),
            line_sizes: Sequence[int] | None = None,
            scale_divisor: int = 8,
            requests_multiplier: int = 4,
    ) -> dict[str, dict[int, UtilisationResult]]:
        """Access-number distributions per line size (Figure 1).

        The N buckets (up to "20 or more accesses per 64B before
        eviction") only populate when the trace revisits each line many
        times within one cHBM residency, which needs trace length >>
        footprint.  The paper gets this from billions of instructions;
        the reproduction runs the characterisation at a further-reduced
        dedicated scale (``scale_divisor`` below the harness scale) with
        a longer window (``requests_multiplier``), preserving the
        footprint:cHBM ratios that shape the distributions.
        """
        sizes = list(line_sizes or FIG1_LINE_SIZES)
        fig1_scale = SystemScale(self.config.scale.factor / scale_divisor)
        n_requests = self.config.requests * requests_multiplier
        out: dict[str, dict[int, UtilisationResult]] = {}
        for workload in workloads:
            packed = self._packed_trace(
                synthetic_spec(workload, fig1_scale), n_requests)
            addresses = [addr for addr, _, _ in packed.iter_decoded()]
            out[workload] = characterise(addresses, fig1_scale.hbm_bytes,
                                         sizes)
        return out

    # ---- Table II ----------------------------------------------------------

    def table2_characteristics(self) -> list[dict]:
        """Measured MPKI / footprint per benchmark vs the Table II targets."""
        from ..traces.trace import summarise
        rows = []
        for name in self.config.workloads:
            spec = SPEC2017[name]
            summary = summarise(self.trace(name))
            rows.append({
                "benchmark": name,
                "group": spec.group,
                "mpki_paper": spec.mpki,
                "mpki_measured": summary.mpki,
                "footprint_paper_gb": spec.footprint_gb,
                "footprint_configured_mb":
                    self.config.scale.footprint_bytes(spec) / (1 << 20),
                "footprint_touched_mb": summary.footprint_bytes / (1 << 20),
            })
        return rows

    # ---- Figure 6 ----------------------------------------------------------

    def figure6_design_space(
            self,
            block_sizes: Sequence[int] = (1 * KIB, 2 * KIB, 4 * KIB),
            page_sizes: Sequence[int] = (64 * KIB, 96 * KIB, 128 * KIB),
            workloads: Sequence[str] | None = None,
            jobs: int | None = 1,
    ) -> dict[tuple[int, int], dict]:
        """Normalised IPC for each block-page configuration (Figure 6).

        Each configuration is a Bumblebee :class:`DesignSpec` whose
        devices the harness refits to its page size (see
        :meth:`devices`).  Configurations whose metadata exceeds the
        (scaled) SRAM budget are reported with ``fits_sram=False``,
        mirroring the paper's 512KB feasibility cut.  ``jobs`` > 1 fans
        the cells over processes.
        """
        from ..exec.backends import run_cells
        from ..exec.plan import enumerate_cells
        chosen = list(workloads or self.config.workloads)
        specs = registry.expand_grid("Bumblebee", {
            "page_bytes": list(page_sizes), "block_bytes": list(block_sizes)})
        run_cells(self, enumerate_cells(specs, chosen), jobs=jobs)
        out: dict[tuple[int, int], dict] = {}
        for spec in specs:
            bconfig = BumblebeeConfig(**spec.param_dict)
            hbm_config, dram_config = self.devices(spec)
            geometry = derive_geometry(
                bconfig, hbm_config.geometry.capacity_bytes,
                dram_config.geometry.capacity_bytes)
            sizes = metadata_sizes(bconfig, geometry)
            picked = [self.run_design(spec, workload) for workload in chosen]
            out[(bconfig.block_bytes, bconfig.page_bytes)] = {
                "norm_ipc": geomean_speedup(picked),
                "metadata_bytes": sizes.total_bytes,
                "fits_sram": sizes.total_bytes
                <= self.config.scale.sram_bytes,
            }
        return out

    # ---- §IV-B -------------------------------------------------------------

    def sec4b_metadata(self) -> dict:
        """Metadata budgets at full paper scale (the 334KB claim)."""
        config = BumblebeeConfig()
        geometry = derive_geometry(config, PAPER_SCALE.hbm_bytes,
                                   PAPER_SCALE.dram_bytes)
        bumblebee = metadata_sizes(config, geometry)
        return {
            "bumblebee": bumblebee,
            "bumblebee_fits_sram": bumblebee.fits_sram(SRAM_BUDGET_BYTES),
            "hybrid2_bytes": hybrid2_metadata_bytes(
                PAPER_SCALE.hbm_bytes, PAPER_SCALE.dram_bytes),
            "alloy_bytes": alloy_metadata_bytes(PAPER_SCALE.hbm_bytes),
            "chameleon_bytes": chameleon_metadata_bytes(
                PAPER_SCALE.hbm_bytes, PAPER_SCALE.dram_bytes),
        }

    def sec4b_overfetch(self, designs: Sequence[str] = ("Hybrid2",
                                                        "Bumblebee"),
                        workloads: Sequence[str] | None = None
                        ) -> dict[str, float]:
        """Fraction of data brought into HBM but never used (§IV-B)."""
        chosen = list(workloads or self.config.workloads)
        out = {}
        for design in designs:
            fetched = 0
            unused = 0
            for workload in chosen:
                controller = make_controller(
                    design, self.hbm_config, self.dram_config,
                    sram_bytes=self.config.scale.sram_bytes)
                self.driver.run(controller, self.trace(workload),
                                workload=workload,
                                warmup=self.config.warmup,
                                engine=self.config.engine)
                fetched += controller.stats.get("fetched_bytes")
                unused += controller.stats.get("overfetch_bytes")
            out[design] = unused / fetched if fetched else 0.0
        return out

    # ---- Figure 7 ----------------------------------------------------------

    def figure7_breakdown(self, variants: Sequence[str] | None = None,
                          workloads: Sequence[str] | None = None,
                          jobs: int | None = 1) -> dict[str, float]:
        """Geomean speedup of each factor-breakdown variant (Figure 7).

        ``jobs`` > 1 fans the (variant, workload) cells over processes;
        the aggregates are bit-identical to a serial run.
        """
        from ..exec.backends import run_cells
        from ..exec.plan import enumerate_cells
        chosen_workloads = list(workloads or self.config.workloads)
        chosen_variants = list(variants or FIGURE7_VARIANTS)
        run_cells(self, enumerate_cells(chosen_variants,
                                        chosen_workloads), jobs=jobs)
        out = {}
        for variant in chosen_variants:
            comparisons = [self.run_design(variant, workload)
                           for workload in chosen_workloads]
            out[variant] = geomean_speedup(comparisons)
        return out

    # ---- Figure 8 ----------------------------------------------------------

    def figure8_comparison(self, designs: Sequence[str] | None = None,
                           workloads: Sequence[str] | None = None,
                           groups: Sequence[str] = ("high", "medium",
                                                    "low", "all"),
                           jobs: int | None = 1,
                           ) -> dict[str, dict[str, GroupSummary]]:
        """Figures 8(a)-(d): per-MPKI-group normalised IPC / traffic /
        energy for every design.  ``jobs`` > 1 fans the cells over
        processes (results identical to a serial run)."""
        from ..exec.backends import run_cells
        from ..exec.plan import enumerate_cells
        chosen_workloads = list(workloads or self.config.workloads)
        chosen_designs = list(designs or FIGURE8_DESIGNS)
        run_cells(self, enumerate_cells(chosen_designs,
                                        chosen_workloads), jobs=jobs)
        out: dict[str, dict[str, GroupSummary]] = {}
        for design in chosen_designs:
            comparisons = [self.run_design(design, workload)
                           for workload in chosen_workloads]
            out[design] = {}
            for group in groups:
                try:
                    out[design][group] = summarise_group(comparisons, group)
                except ValueError:
                    continue
        return out

    # ---- §IV-D --------------------------------------------------------------

    def sec4d_overheads(self, workloads: Sequence[str] | None = None
                        ) -> dict:
        """Metadata-access and mode-switch overheads vs Hybrid2 (§IV-D)."""
        chosen = list(workloads or self.config.workloads)
        totals = {"Bumblebee": {"mal_ns": 0.0, "switch_bytes": 0},
                  "Hybrid2": {"mal_ns": 0.0, "switch_bytes": 0}}
        for design in totals:
            for workload in chosen:
                controller = make_controller(
                    design, self.hbm_config, self.dram_config,
                    sram_bytes=self.config.scale.sram_bytes)
                result = self.driver.run(controller, self.trace(workload),
                                         workload=workload,
                                         warmup=self.config.warmup,
                                         engine=self.config.engine)
                totals[design]["mal_ns"] += result.total_metadata_ns
                totals[design]["switch_bytes"] += controller.stats.get(
                    "mode_switch_bytes")
        hybrid2 = totals["Hybrid2"]
        bumblebee = totals["Bumblebee"]

        def reduction(ours: float, theirs: float) -> float:
            return 1.0 - ours / theirs if theirs else 0.0

        return {
            "mal_reduction": reduction(bumblebee["mal_ns"],
                                       hybrid2["mal_ns"]),
            "mode_switch_reduction": reduction(bumblebee["switch_bytes"],
                                               hybrid2["switch_bytes"]),
            "totals": totals,
        }
