"""The trace -> controller -> CPU simulation loop.

:class:`SimulationDriver` feeds a miss stream (a
:class:`~repro.traces.packed.PackedTrace`) into a hybrid memory
controller, advances wall time through the analytic CPU model, and
collects the :class:`SimResult` that every experiment in the paper is
derived from: achieved IPC, per-device traffic, per-device dynamic
energy, and the controller's own statistics (hit rates, over-fetch,
metadata-access latency, movement counts).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from ..mem.energy import EnergyBreakdown
from ..traces.packed import PackedTrace
from .cpu import CpuModel
from .stats import Histogram

#: Latency histogram bucket bounds (ns): sub-row-hit through fault-class.
LATENCY_BOUNDS = [10.0, 20.0, 30.0, 50.0, 80.0, 120.0, 200.0, 400.0,
                  1000.0]

#: Default epoch granularity of the vectorized epoch engine (requests
#: per epoch); also the epoch size scalar runs report for comparability.
VECTOR_EPOCH_REQUESTS = 1 << 16

#: Valid ``engine=`` selectors for :meth:`SimulationDriver.run`.
ENGINES = ("auto", "scalar", "vector")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines.base import HybridMemoryController


@dataclass
class SimResult:
    """Everything measured in one simulation run.

    All figures in the paper normalise against a no-HBM baseline run of the
    same trace; use :meth:`normalised_ipc` etc. with that baseline result.
    """

    controller: str
    workload: str
    instructions: int
    requests: int
    elapsed_ns: float
    total_latency_ns: float
    total_metadata_ns: float
    hbm_hits: int
    hbm_read_bytes: int
    hbm_write_bytes: int
    dram_read_bytes: int
    dram_write_bytes: int
    hbm_energy: EnergyBreakdown
    dram_energy: EnergyBreakdown
    cpu: CpuModel
    controller_stats: dict[str, int] = field(default_factory=dict)
    metadata_bytes: int = 0
    latency_histogram: Histogram | None = None

    @property
    def ipc(self) -> float:
        """Achieved IPC of the measured window.

        Raises:
            ValueError: for a zero-request run, which has no meaningful
                IPC (nothing was measured, so none is fabricated).
        """
        if self.requests == 0 or self.elapsed_ns <= 0:
            raise ValueError(
                f"zero-request run ({self.controller!r} on "
                f"{self.workload!r}) has no IPC")
        return self.cpu.ipc(self.instructions, self.elapsed_ns)

    @property
    def hbm_hit_rate(self) -> float:
        return self.hbm_hits / self.requests if self.requests else 0.0

    @property
    def avg_latency_ns(self) -> float:
        return self.total_latency_ns / self.requests if self.requests else 0.0

    def latency_percentile(self, percentile: float) -> float:
        """Approximate latency percentile from the histogram (upper
        bucket bound of the bucket containing the percentile).

        Raises:
            ValueError: when no histogram was collected, the histogram
                is empty (zero measured requests), or the percentile is
                outside (0, 100].
        """
        if self.latency_histogram is None:
            raise ValueError("run() did not collect a latency histogram")
        return self.latency_histogram.percentile(percentile)

    @property
    def metadata_latency_fraction(self) -> float:
        """MAL share of total request latency (paper §II-B: 2%-26%)."""
        if self.total_latency_ns == 0:
            return 0.0
        return self.total_metadata_ns / self.total_latency_ns

    @property
    def hbm_traffic_bytes(self) -> int:
        return self.hbm_read_bytes + self.hbm_write_bytes

    @property
    def dram_traffic_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def dynamic_energy_pj(self) -> float:
        return self.hbm_energy.dynamic_pj + self.dram_energy.dynamic_pj

    def to_record(self) -> dict:
        """JSON-ready dump of the result (plain dicts and scalars).

        JSON round-trips Python ints and floats exactly (shortest
        round-trip repr), so :meth:`from_record` rebuilds a result that
        compares equal to the original — the property the persistent
        baseline cache in :mod:`repro.analysis.experiments` relies on.
        """
        return asdict(self)

    @classmethod
    def from_record(cls, record: dict) -> "SimResult":
        """Rebuild a result from a :meth:`to_record` dump.

        Raises:
            TypeError: for a record whose shape does not match (a dump
                from an incompatible version).
        """
        data = dict(record)
        data["hbm_energy"] = EnergyBreakdown(**data["hbm_energy"])
        data["dram_energy"] = EnergyBreakdown(**data["dram_energy"])
        data["cpu"] = CpuModel(**data["cpu"])
        histogram = data.get("latency_histogram")
        if histogram is not None:
            data["latency_histogram"] = Histogram(**histogram)
        return cls(**data)

    def normalised_ipc(self, baseline: "SimResult") -> float:
        return self.ipc / baseline.ipc

    def normalised_traffic(self, baseline: "SimResult",
                           device: str) -> float:
        if device == "hbm":
            mine, theirs = self.hbm_traffic_bytes, baseline.hbm_traffic_bytes
        elif device == "dram":
            mine, theirs = (self.dram_traffic_bytes,
                            baseline.dram_traffic_bytes)
        else:
            raise ValueError(f"unknown device {device!r}")
        return mine / theirs if theirs else 0.0

    def normalised_energy(self, baseline: "SimResult") -> float:
        if baseline.dynamic_energy_pj == 0:
            return 0.0
        return self.dynamic_energy_pj / baseline.dynamic_energy_pj


class SimulationDriver:
    """Runs packed miss streams against hybrid memory controllers.

    Args:
        cpu: The analytic CPU model (defaults to the paper system).
        checker: Optional :class:`~repro.sanitize.InvariantChecker`.
            When set, runs take the scalar loop with the checker's hooks
            called at run start, at the warm-up boundary, per request
            and at run end, validating conservation laws per request and
            per epoch (see :mod:`repro.sanitize.invariants`) —
            numerically identical results, sanitizer-grade overhead.
        vector_epoch: Epoch size (requests) of the vectorized epoch
            engine; None uses :data:`VECTOR_EPOCH_REQUESTS`.  Results
            are bit-identical at any epoch size (pinned by the
            sanitizer's ``--vector-epoch`` matrix leg).

    After each :meth:`run` the driver records which engine executed:
    ``last_engine`` ("vector", "scalar", or "checked") plus
    ``last_vector_epochs`` / ``last_scalar_epochs`` (epoch counts at
    the vector epoch granularity), ``last_policy_requests`` (requests
    the two-pass epoch engine's pass 1 ran through
    ``controller.access``; 0 for the scalar loop) and
    ``last_fallback_reason`` (why the
    scalar loop ran: e.g. ``design-not-batch-capable``,
    ``engine-forced-scalar``; None when the epoch engine ran) —
    campaign timing records surface these per cell.

    Raises:
        ValueError: for a non-positive or non-integer ``vector_epoch``.
    """

    def __init__(self, cpu: CpuModel | None = None,
                 checker: "object | None" = None,
                 vector_epoch: int | None = None) -> None:
        if vector_epoch is not None:
            if isinstance(vector_epoch, bool) or not isinstance(
                    vector_epoch, int):
                raise ValueError(
                    f"vector_epoch must be a positive integer, got "
                    f"{vector_epoch!r} ({type(vector_epoch).__name__})")
            if vector_epoch <= 0:
                raise ValueError(
                    f"vector_epoch must be a positive integer, got "
                    f"{vector_epoch}")
        self.cpu = cpu or CpuModel()
        self.checker = checker
        self.vector_epoch = vector_epoch
        self.last_engine: str | None = None
        self.last_vector_epochs = 0
        self.last_scalar_epochs = 0
        self.last_policy_requests = 0
        self.last_fallback_reason: str | None = None

    def run(self, controller: "HybridMemoryController",
            trace: PackedTrace,
            workload: str = "unnamed",
            max_requests: int | None = None,
            warmup: int = 0,
            engine: str = "auto") -> SimResult:
        """Simulate ``trace`` through ``controller`` to completion.

        Args:
            controller: Any object implementing the
                :class:`~repro.baselines.base.HybridMemoryController`
                protocol.
            trace: The miss stream.  The scalar loop decodes each
                packed integer into one reused mutable request instead
                of constructing a fresh object per miss.
            workload: Label recorded in the result.
            max_requests: Optional cap on the number of requests consumed
                (measured requests, after warm-up).
            warmup: Requests used to warm the controller's metadata and
                data placement before measurement begins.  Traffic,
                energy, latency, and statistics counters are reset at the
                warm-up boundary — the trace-driven equivalent of the
                paper's SimPoint warm-up, without which one-time
                cold-start movement dominates the traffic ratios.
            engine: Replay engine selection.  ``"auto"`` and
                ``"vector"`` take the two-pass epoch engine
                (:mod:`repro.sim.vectorized`) when the controller
                implements ``batch_epoch_plan`` and does not veto it,
                and the scalar loop otherwise; ``"scalar"`` forces the
                scalar loop.  Engine choice can never change a result —
                the epoch engine is bit-identical to the scalar loop
                (pinned by the differential sanitizer's scalar, checked
                and epoch legs).

        Raises:
            TypeError: for a ``trace`` that is not a
                :class:`~repro.traces.packed.PackedTrace`.
            ValueError: for an ``engine`` outside :data:`ENGINES`.

        Returns:
            A fully populated :class:`SimResult` (measured window only).
            A window that measured zero requests is returned with
            ``elapsed_ns == 0.0``; reading :attr:`SimResult.ipc` then
            raises instead of fabricating a number.
        """
        # This loop runs once per simulated LLC miss and dominates every
        # experiment's wall time.  All attribute lookups are hoisted to
        # locals, the analytic CPU model is inlined (same arithmetic as
        # CpuModel.compute_ns/stall_ns, term for term), and the histogram
        # insert is a single bisect on a local counts list.  The trace
        # replays through one reused mutable request — the controllers
        # only ever read request fields.
        if not isinstance(trace, PackedTrace):
            raise TypeError(
                f"SimulationDriver.run replays a PackedTrace, got "
                f"{type(trace).__name__}; pack request objects with "
                f"PackedTrace.from_requests")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; valid engines: "
                             f"{', '.join(ENGINES)}")
        checker = self.checker
        self.last_fallback_reason = None
        if checker is not None:
            self.last_fallback_reason = "invariant-checker-active"
        elif engine == "scalar":
            self.last_fallback_reason = "engine-forced-scalar"
        elif len(trace):
            from .vectorized import fallback_reason, replay_epoch
            # An epoch-capable controller can still veto the two-pass
            # engine for a configuration whose feedback is not
            # epoch-granular (epoch_fallback_reason).
            self.last_fallback_reason = fallback_reason(controller)
            if self.last_fallback_reason is None:
                result, epochs, policy_requests = replay_epoch(
                    self, controller, trace, workload=workload,
                    max_requests=max_requests, warmup=warmup,
                    epoch_requests=self.vector_epoch)
                self.last_engine = "vector"
                self.last_vector_epochs = epochs
                self.last_scalar_epochs = 0
                self.last_policy_requests = policy_requests
                return result
        else:
            self.last_fallback_reason = "empty-trace"
        cpu = self.cpu
        retire_rate = cpu.ipc_peak * cpu.cores
        freq_ghz = cpu.freq_ghz
        mlp = cpu.mlp
        controller_access = controller.access
        fault_penalty = controller.page_fault_penalty_ns
        bounds = LATENCY_BOUNDS
        bucket = bisect_right
        limit = float("inf") if max_requests is None else max_requests
        now_ns = 0.0
        measure_start_ns = 0.0
        instructions = 0
        requests = 0
        seen = 0
        total_latency = 0.0
        total_metadata = 0.0
        hbm_hits = 0
        counts = [0] * (len(bounds) + 1)
        if checker is not None:
            checker.on_run_start(controller, workload)
        for request in trace.replay():
            if requests >= limit:
                break
            if seen == warmup and warmup:
                controller.reset_measurements()
                measure_start_ns = now_ns
                instructions = 0
                total_latency = 0.0
                total_metadata = 0.0
                hbm_hits = 0
                requests = 0
                counts = [0] * (len(bounds) + 1)
                if checker is not None:
                    checker.on_measurement_reset(now_ns)
            seen += 1
            icount = request.icount
            now_ns += icount / retire_rate / freq_ghz
            instructions += icount
            fault_ns = fault_penalty(request)
            result = controller_access(request, now_ns + fault_ns)
            latency_ns = result.latency_ns + fault_ns
            if checker is not None:
                checker.on_request(request, result, fault_ns, now_ns,
                                   now_ns + latency_ns / mlp)
            now_ns += latency_ns / mlp
            total_latency += latency_ns
            total_metadata += result.metadata_ns
            counts[bucket(bounds, latency_ns)] += 1
            if result.hbm_hit:
                hbm_hits += 1
            requests += 1
        controller.finish(now_ns)
        now_ns -= measure_start_ns
        histogram = Histogram(bounds=list(LATENCY_BOUNDS), counts=counts,
                              total=requests)
        epoch = self.vector_epoch or VECTOR_EPOCH_REQUESTS
        self.last_engine = "scalar" if checker is None else "checked"
        self.last_vector_epochs = 0
        self.last_scalar_epochs = -(-seen // epoch)
        self.last_policy_requests = 0
        result = self._build_result(controller, workload, instructions,
                                    requests, now_ns, total_latency,
                                    total_metadata, hbm_hits, histogram)
        if checker is not None:
            checker.on_run_end(controller, result)
        return result

    def _build_result(self, controller: "HybridMemoryController",
                      workload: str, instructions: int, requests: int,
                      elapsed_ns: float, total_latency: float,
                      total_metadata: float, hbm_hits: int,
                      histogram: Histogram) -> SimResult:
        hbm_traffic = controller.hbm.traffic() if controller.hbm else None
        dram_traffic = controller.dram.traffic()
        zero = EnergyBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
        return SimResult(
            controller=controller.name,
            workload=workload,
            instructions=instructions,
            requests=requests,
            elapsed_ns=elapsed_ns,
            total_latency_ns=total_latency,
            total_metadata_ns=total_metadata,
            hbm_hits=hbm_hits,
            hbm_read_bytes=hbm_traffic.read_bytes if hbm_traffic else 0,
            hbm_write_bytes=hbm_traffic.write_bytes if hbm_traffic else 0,
            dram_read_bytes=dram_traffic.read_bytes,
            dram_write_bytes=dram_traffic.write_bytes,
            hbm_energy=(controller.hbm.energy(elapsed_ns)
                        if controller.hbm else zero),
            dram_energy=controller.dram.energy(elapsed_ns),
            cpu=self.cpu,
            controller_stats=controller.stats.as_dict(),
            metadata_bytes=controller.metadata_bytes(),
            latency_histogram=histogram,
        )
