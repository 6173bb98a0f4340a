"""Runtime invariant checking for simulation runs — the sanitizer pass.

An :class:`InvariantChecker` installs into
:class:`~repro.sim.driver.SimulationDriver` (``checker=`` argument) and
asserts conservation laws while a run executes:

* per request — simulated time is monotonically non-decreasing, every
  latency decomposes sanely (``0 <= metadata_ns <= latency_ns``), and
  the hit flag agrees with the servicing device;
* per epoch (every ``epoch_requests`` requests) — the controller's
  demand counters conserve requests (hits + misses == requests served),
  Bumblebee's PRT/BLE metadata cross-validates and cHBM/mHBM occupancy
  never exceeds the stack (:meth:`BumblebeeController.check_invariants`),
  per-bank row-buffer state is consistent with the issued commands
  (the device's ``check_consistent`` plus an exact
  accesses-vs-bank-outcomes reconciliation), and device horizons and
  traffic counters only ever move forward;
* at mode-flip time — every BLE state transition is validated against
  the legal state machine (:func:`repro.core.ble.check_mode_transition`)
  through recording entries swapped into the controller's BLE arrays;
* at run end — the :class:`~repro.sim.driver.SimResult` reconciles
  *exactly* (bit-for-bit, no tolerances) against independently mirrored
  accounting and against the ``repro.mem`` per-channel counters it
  aggregates: request/hit/instruction counts, total latency and
  metadata time, elapsed time, the latency histogram, per-device
  traffic, and per-device energy.

Checks are opt-in: a driver without a checker runs the unmodified
zero-overhead fast loop.  By default violations are collected into
:attr:`InvariantChecker.violations`; with ``strict=True`` the first
violation raises :class:`InvariantViolation`.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

from ..core.ble import BlockLocationEntry, WayMode, check_mode_transition
from ..sim.driver import LATENCY_BOUNDS, SimResult
from ..sim.request import ServicedBy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines.base import HybridMemoryController
    from ..mem.device import MemoryDevice
    from ..sim.request import AccessResult


class InvariantViolation(AssertionError):
    """A simulation invariant was broken (strict-mode checker)."""


class _RecordingEntry(BlockLocationEntry):
    """A BLE entry whose mode flips report to an observer.

    ``mode`` is overridden with a data descriptor, so every assignment —
    including the ones inside inherited dataclass methods — routes
    through the transition check.  The observer is attached *after*
    construction; assignments before that (the dataclass ``__init__``)
    are installation, not transitions, and pass silently.
    """

    @property  # type: ignore[override]
    def mode(self) -> WayMode:
        return self._mode

    @mode.setter
    def mode(self, new: WayMode) -> None:
        old = getattr(self, "_mode", None)
        self._mode = new
        if old is None or old is new:
            return
        observer = getattr(self, "observer", None)
        if observer is None:
            return
        message = check_mode_transition(self, old, new)
        if message is not None:
            observer(f"set {self.set_index} way {self.way}: {message}")

    def to_plain(self) -> BlockLocationEntry:
        """The equivalent ordinary entry (for uninstallation)."""
        return BlockLocationEntry(owner=self.owner, mode=self.mode,
                                  valid=self.valid, dirty=self.dirty,
                                  brought=self.brought, used=self.used)


class InvariantChecker:
    """Collects (or raises on) invariant violations during one run.

    Args:
        epoch_requests: Structural checks (metadata cross-validation,
            device consistency, counter conservation) run every this
            many measured requests.  Per-request checks always run.
        max_violations: Collection cap; further violations are counted
            but not stored.
        strict: Raise :class:`InvariantViolation` on the first breach
            instead of collecting.

    One checker instance serves one run at a time; construct a fresh
    one (or reuse after a completed run) per simulation.
    """

    def __init__(self, epoch_requests: int = 1024,
                 max_violations: int = 64, strict: bool = False) -> None:
        if epoch_requests < 1:
            raise ValueError("epoch_requests must be positive")
        self.epoch_requests = epoch_requests
        self.max_violations = max_violations
        self.strict = strict
        self.violations: list[str] = []
        self.violation_count = 0
        self.requests_checked = 0
        self.epochs_checked = 0
        self._controller: "HybridMemoryController | None" = None
        self._devices: list[tuple[str, "MemoryDevice"]] = []
        self._access_counts: dict[str, int] = {}
        self._snapshots: dict[str, list[tuple]] = {}
        self._recorders: list[tuple[list, int]] = []
        self._reset_mirrors()

    # ---- reporting -------------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def record(self, message: str) -> None:
        """Report one violation (raises in strict mode)."""
        self.violation_count += 1
        if len(self.violations) < self.max_violations:
            self.violations.append(message)
        if self.strict:
            raise InvariantViolation(message)

    # ---- driver hooks ----------------------------------------------------

    def on_run_start(self, controller: "HybridMemoryController",
                     workload: str = "") -> None:
        """Instrument ``controller`` for the run about to execute."""
        self.violations = []
        self.violation_count = 0
        self.requests_checked = 0
        self.epochs_checked = 0
        self._reset_mirrors()
        self._controller = controller
        self._devices = []
        if controller.hbm is not None:
            self._devices.append(("hbm", controller.hbm))
        self._devices.append(("dram", controller.dram))
        self._access_counts = {label: 0 for label, _ in self._devices}
        for label, device in self._devices:
            self._wrap_device_access(label, device)
        self._snapshots = {label: self._snapshot(device)
                           for label, device in self._devices}
        self._install_ble_recorders(controller)

    def on_measurement_reset(self, now_ns: float) -> None:
        """The driver crossed the warm-up boundary at ``now_ns``."""
        self._reset_mirrors()
        self._measure_start = now_ns
        self._last_after = now_ns
        for label in self._access_counts:
            self._access_counts[label] = 0
        self._snapshots = {label: self._snapshot(device)
                           for label, device in self._devices}

    def on_request(self, request, result: "AccessResult", fault_ns: float,
                   before_ns: float, after_ns: float) -> None:
        """Validate and mirror one serviced request.

        ``before_ns`` is simulated time when the request was presented
        (after the compute advance), ``after_ns`` after its stall.
        """
        if not before_ns >= self._last_after:
            self.record(
                f"request {self._requests}: time went backwards "
                f"({before_ns}ns after {self._last_after}ns)")
        if not after_ns >= before_ns:
            self.record(
                f"request {self._requests}: negative stall "
                f"({before_ns}ns -> {after_ns}ns)")
        self._last_after = after_ns
        latency_ns = result.latency_ns + fault_ns
        if not (0.0 <= result.metadata_ns <= latency_ns):
            self.record(
                f"request {self._requests}: metadata time "
                f"{result.metadata_ns}ns outside [0, {latency_ns}ns]")
        if fault_ns < 0.0:
            self.record(
                f"request {self._requests}: negative fault penalty "
                f"{fault_ns}ns")
        if result.hbm_hit != (result.serviced_by is ServicedBy.HBM):
            self.record(
                f"request {self._requests}: hbm_hit={result.hbm_hit} "
                f"but serviced by {result.serviced_by.value}")
        # Mirror the driver's accounting, term for term and in the same
        # order, so end-of-run comparisons can demand exact equality.
        self._requests += 1
        self._instructions += request.icount
        self._latency += latency_ns
        self._metadata += result.metadata_ns
        if result.hbm_hit:
            self._hits += 1
        self._counts[bisect_right(LATENCY_BOUNDS, latency_ns)] += 1
        self.requests_checked += 1
        if self._requests % self.epoch_requests == 0:
            self.check_epoch()

    def on_run_end(self, controller: "HybridMemoryController",
                   result: SimResult) -> None:
        """Final reconciliation; uninstruments the controller."""
        try:
            self.check_epoch()
            self._check_result(controller, result)
        finally:
            self._uninstall(controller)

    # ---- epoch checks ----------------------------------------------------

    def check_epoch(self) -> None:
        """Run every structural (non-per-request) check now."""
        self.epochs_checked += 1
        controller = self._controller
        if controller is None:
            return
        stats = controller.stats
        demands = stats.get("demand_reads") + stats.get("demand_writes")
        if demands != self._requests:
            self.record(
                f"epoch {self.epochs_checked}: {demands} demand accesses "
                f"recorded for {self._requests} requests served")
        if stats.get("hbm_demand_hits") != self._hits:
            self.record(
                f"epoch {self.epochs_checked}: "
                f"{stats.get('hbm_demand_hits')} recorded HBM hits vs "
                f"{self._hits} observed (hits + misses != requests)")
        check = getattr(controller, "check_invariants", None)
        if check is not None:
            try:
                check()
            except AssertionError as exc:
                self.record(f"epoch {self.epochs_checked}: metadata "
                            f"invariant broken: {exc}")
        for label, device in self._devices:
            for message in device.check_consistent():
                self.record(f"epoch {self.epochs_checked}: {message}")
            self._check_row_ranges(label, device)
            self._check_monotone(label, device)
            self._check_access_counts(label, device)

    def _check_row_ranges(self, label: str, device: "MemoryDevice") -> None:
        g = device.config.geometry
        rows_per_bank = (g.capacity_bytes // g.channels
                         // g.banks_per_channel // g.row_bytes)
        rows = device.state.open_row[device.bank_slice]
        for index, row in enumerate(rows):
            if row >= rows_per_bank:
                channel, bank = divmod(index, g.banks_per_channel)
                self.record(
                    f"{label} channel {channel} bank {bank}: open row "
                    f"{row} beyond the device's {rows_per_bank} rows")

    def _check_monotone(self, label: str, device: "MemoryDevice") -> None:
        """Device horizons and counters only ever move forward."""
        snapshot = self._snapshot(device)
        for channel, (old, new) in enumerate(zip(self._snapshots[label],
                                                 snapshot)):
            if any(n < o for o, n in zip(old, new)):
                self.record(
                    f"{label} channel {channel}: a bus/busy "
                    f"horizon or traffic counter moved backwards "
                    f"({old} -> {new})")
        self._snapshots[label] = snapshot

    def _check_access_counts(self, label: str,
                             device: "MemoryDevice") -> None:
        """Bank outcomes reconcile with counted device accesses."""
        outcomes = device.row_buffer_stats()
        total = outcomes["hits"] + outcomes["closed"] + outcomes["conflicts"]
        counted = self._access_counts[label]
        if total != counted:
            self.record(
                f"{label}: banks recorded {total} outcomes for {counted} "
                f"demand accesses issued")

    # ---- run-end reconciliation -----------------------------------------

    def _check_result(self, controller: "HybridMemoryController",
                      result: SimResult) -> None:
        mirror = {
            "requests": (result.requests, self._requests),
            "hbm_hits": (result.hbm_hits, self._hits),
            "instructions": (result.instructions, self._instructions),
            "total_latency_ns": (result.total_latency_ns, self._latency),
            "total_metadata_ns": (result.total_metadata_ns, self._metadata),
            "elapsed_ns": (result.elapsed_ns,
                           self._last_after - self._measure_start),
        }
        for name, (reported, expected) in mirror.items():
            if reported != expected:
                self.record(
                    f"result.{name} {reported} != independently "
                    f"mirrored {expected}")
        histogram = result.latency_histogram
        if histogram is None:
            self.record("result carries no latency histogram")
        else:
            if histogram.counts != self._counts:
                self.record(
                    f"latency histogram {histogram.counts} != mirrored "
                    f"{self._counts}")
            if histogram.total != self._requests or \
                    sum(histogram.counts) != self._requests:
                self.record(
                    f"latency histogram totals ({histogram.total}, "
                    f"sum {sum(histogram.counts)}) != {self._requests} "
                    f"requests")
        dram_traffic = controller.dram.traffic()
        if (result.dram_read_bytes, result.dram_write_bytes) != \
                (dram_traffic.read_bytes, dram_traffic.write_bytes):
            self.record(
                f"result DRAM traffic ({result.dram_read_bytes}, "
                f"{result.dram_write_bytes}) != channel counters "
                f"({dram_traffic.read_bytes}, {dram_traffic.write_bytes})")
        if result.dram_energy != controller.dram.energy(result.elapsed_ns):
            self.record("result DRAM energy does not reconcile with the "
                        "device's counters")
        if controller.hbm is not None:
            hbm_traffic = controller.hbm.traffic()
            if (result.hbm_read_bytes, result.hbm_write_bytes) != \
                    (hbm_traffic.read_bytes, hbm_traffic.write_bytes):
                self.record(
                    f"result HBM traffic ({result.hbm_read_bytes}, "
                    f"{result.hbm_write_bytes}) != channel counters "
                    f"({hbm_traffic.read_bytes}, "
                    f"{hbm_traffic.write_bytes})")
            if result.hbm_energy != \
                    controller.hbm.energy(result.elapsed_ns):
                self.record("result HBM energy does not reconcile with "
                            "the device's counters")

    # ---- instrumentation plumbing ---------------------------------------

    def _reset_mirrors(self) -> None:
        self._requests = 0
        self._hits = 0
        self._instructions = 0
        self._latency = 0.0
        self._metadata = 0.0
        self._measure_start = 0.0
        self._last_after = 0.0
        self._counts = [0] * (len(LATENCY_BOUNDS) + 1)

    @staticmethod
    def _snapshot(device: "MemoryDevice") -> list[tuple]:
        s = device.state
        chans = device.chan_slice
        return list(zip(s.bus_free[chans], s.chan_busy[chans],
                        s.read_bytes[chans], s.write_bytes[chans],
                        s.activations[chans], s.read_bursts[chans],
                        s.write_bursts[chans]))

    def _wrap_device_access(self, label: str,
                            device: "MemoryDevice") -> None:
        """Count demand accesses via an instance-attribute wrapper."""
        counts = self._access_counts
        unwrapped = device.access  # bound class method

        def counted(addr, nbytes, is_write, now_ns):
            counts[label] += 1
            return unwrapped(addr, nbytes, is_write, now_ns)

        device.access = counted  # type: ignore[method-assign]

    def _install_ble_recorders(
            self, controller: "HybridMemoryController") -> None:
        """Swap recording entries into a Bumblebee controller's BLE."""
        self._recorders = []
        arrays = getattr(controller, "ble", None)
        if arrays is None:
            return
        for set_index, array in enumerate(arrays):
            entries = array._entries
            for way, entry in enumerate(entries):
                recorder = _RecordingEntry(
                    owner=entry.owner, mode=entry.mode, valid=entry.valid,
                    dirty=entry.dirty, brought=entry.brought,
                    used=entry.used)
                recorder.observer = self.record
                recorder.set_index = set_index
                recorder.way = way
                # In-place element replacement: the controller's
                # _ble_entries aliases reference these same lists.
                entries[way] = recorder
                self._recorders.append((entries, way))

    def _uninstall(self, controller: "HybridMemoryController") -> None:
        for _, device in self._devices:
            try:
                del device.access
            except AttributeError:
                pass
        for entries, way in self._recorders:
            entry = entries[way]
            if isinstance(entry, _RecordingEntry):
                entries[way] = entry.to_plain()
        self._recorders = []
        self._controller = None
        self._devices = []
