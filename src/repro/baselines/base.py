"""Controller framework shared by Bumblebee and every baseline.

A :class:`HybridMemoryController` owns the HBM and off-chip DRAM devices,
serves :class:`MemoryRequest` objects arriving from the LLC, and performs
asynchronous data movement through the :class:`MovementEngine`, which is the
single place where migration/caching/eviction traffic gets charged to the
devices and to the controller's statistics.

Statistic conventions used across all controllers (keys in ``stats``):

* ``demand_reads`` / ``demand_writes`` — requests served.
* ``hbm_demand_hits`` — demand accesses satisfied from HBM.
* ``fetch_bytes`` — DRAM -> HBM movement (caching fills + migrations in).
* ``writeback_bytes`` — HBM -> DRAM movement (evictions, flushes).
* ``mode_switch_bytes`` — movement attributable purely to cHBM/mHBM mode
  switches (Figure 7's No-Multi factor; §IV-D's 44.6% reduction claim).
* ``overfetch_bytes`` / ``fetched_bytes`` — bytes brought into HBM that
  were never demanded before leaving, and total bytes brought in (§IV-B).
* ``metadata_accesses`` — metadata lookups that left SRAM (MAL events).
"""

from __future__ import annotations

import abc

from ..mem.device import MemoryDevice, TimingState
from ..mem.timing import DeviceConfig
from ..sim.request import AccessResult, MemoryRequest, ServicedBy
from ..sim.stats import StatGroup


class MovementEngine:
    """Charges asynchronous data movement to the devices and statistics.

    Movement is asynchronous in the modelled hardware (the paper's data
    movement module): it consumes device bandwidth — pushing out the bus
    ``next_free`` horizon so later demand accesses queue behind it — but the
    triggering request does not stall on its completion.
    """

    def __init__(self, hbm: MemoryDevice | None, dram: MemoryDevice,
                 stats: StatGroup) -> None:
        self._hbm = hbm
        self._dram = dram
        self._stats = stats

    def fetch_to_hbm(self, dram_addr: int, hbm_addr: int, nbytes: int,
                     now_ns: float, mode_switch: bool = False) -> None:
        """Move ``nbytes`` from off-chip DRAM into HBM."""
        if nbytes <= 0 or self._hbm is None:
            return
        self._dram.bulk_transfer(dram_addr, nbytes, is_write=False,
                                 now_ns=now_ns)
        self._hbm.bulk_transfer(hbm_addr, nbytes, is_write=True,
                                now_ns=now_ns)
        self._stats.bump("fetch_bytes", nbytes)
        self._stats.bump("fetched_bytes", nbytes)
        if mode_switch:
            self._stats.bump("mode_switch_bytes", nbytes)

    def writeback_to_dram(self, hbm_addr: int, dram_addr: int, nbytes: int,
                          now_ns: float, mode_switch: bool = False) -> None:
        """Move ``nbytes`` from HBM back to off-chip DRAM."""
        if nbytes <= 0 or self._hbm is None:
            return
        self._hbm.bulk_transfer(hbm_addr, nbytes, is_write=False,
                                now_ns=now_ns)
        self._dram.bulk_transfer(dram_addr, nbytes, is_write=True,
                                 now_ns=now_ns)
        self._stats.bump("writeback_bytes", nbytes)
        if mode_switch:
            self._stats.bump("mode_switch_bytes", nbytes)

    def swap(self, hbm_addr: int, dram_addr: int, nbytes: int,
             now_ns: float) -> None:
        """Exchange a page between HBM and DRAM (both directions move)."""
        self.writeback_to_dram(hbm_addr, dram_addr, nbytes, now_ns)
        self.fetch_to_hbm(dram_addr, hbm_addr, nbytes, now_ns)
        self._stats.bump("swaps")


class HybridMemoryController(abc.ABC):
    """Base class for every memory-system design under comparison.

    Args:
        hbm_config: Configuration of the die-stacked device, or None for
            designs without HBM (the normalisation baseline).
        dram_config: Configuration of the off-chip module.
        name: Label used in results.
    """

    def __init__(self, hbm_config: DeviceConfig | None,
                 dram_config: DeviceConfig, name: str) -> None:
        self.name = name
        # Both devices share one flat timing state, HBM first: one global
        # channel/bank numbering for the scalar path and the replay kernels.
        state = TimingState()
        self.hbm = MemoryDevice(hbm_config, state) if hbm_config else None
        self.dram = MemoryDevice(dram_config, state)
        self.stats = StatGroup(name)
        self.mover = MovementEngine(self.hbm, self.dram, self.stats)
        # Demand-path constants, hoisted so the per-request helpers avoid
        # repeated property chains.  Device capacities never change after
        # construction; OS-visible capacity is cached on first use (it is
        # a subclass hook, but constant per instance in every design).
        self._hbm_capacity = self.hbm.capacity_bytes if self.hbm else 0
        self._dram_capacity = self.dram.capacity_bytes
        self._os_visible_cache: int | None = None

    # ---- demand-path helpers -------------------------------------------

    def _demand_hbm(self, hbm_addr: int, request: MemoryRequest,
                    now_ns: float, metadata_ns: float = 0.0) -> AccessResult:
        """Serve the demand from HBM and account the hit."""
        assert self.hbm is not None
        done_ns = self.hbm.access(hbm_addr % self._hbm_capacity,
                                  request.size, request.is_write,
                                  now_ns + metadata_ns)
        bump = self.stats.bump
        bump("hbm_demand_hits")
        bump("demand_writes" if request.is_write else "demand_reads")
        return AccessResult(
            latency_ns=done_ns - now_ns,
            serviced_by=ServicedBy.HBM,
            metadata_ns=metadata_ns,
            hbm_hit=True,
        )

    def _demand_dram(self, dram_addr: int, request: MemoryRequest,
                     now_ns: float, metadata_ns: float = 0.0) -> AccessResult:
        """Serve the demand from off-chip DRAM."""
        done_ns = self.dram.access(dram_addr % self._dram_capacity,
                                   request.size, request.is_write,
                                   now_ns + metadata_ns)
        self.stats.bump("demand_writes" if request.is_write
                        else "demand_reads")
        return AccessResult(
            latency_ns=done_ns - now_ns,
            serviced_by=ServicedBy.DRAM,
            metadata_ns=metadata_ns,
            hbm_hit=False,
        )

    #: Amortised cost of touching a page the OS had to swap out because
    #: the design's OS-visible capacity could not hold the footprint: a
    #: 4KB fault served from a fast NVMe swap device (~10us) amortised
    #: over the lines of the faulted page, with locality.  Cache designs
    #: take the whole stack away from the OS and pay this on footprints
    #: exceeding off-chip DRAM; POM and hybrid designs expose (part of)
    #: the stack and avoid it (SIII-A: "reduce page faults").
    PAGE_FAULT_NS = 250.0

    def os_visible_bytes(self) -> int:
        """Memory capacity the OS can allocate against."""
        visible = self.dram.capacity_bytes
        if self.hbm is not None:
            visible += self.hbm.capacity_bytes
        return visible

    def page_fault_penalty_ns(self, request: MemoryRequest) -> float:
        """Extra latency when the access lands beyond OS-visible memory."""
        visible = self._os_visible_cache
        if visible is None:
            visible = self._os_visible_cache = self.os_visible_bytes()
        if request.addr >= visible:
            self.stats.bump("page_faults")
            return self.PAGE_FAULT_NS
        return 0.0

    def _metadata_access_ns(self, now_ns: float) -> float:
        """Latency of one metadata lookup that misses SRAM (lands in HBM).

        Uses the HBM row-closed path as the canonical metadata round trip,
        matching the paper's observation that in-HBM metadata adds an HBM
        access on the critical path.
        """
        if self.hbm is None:
            return 0.0
        self.stats.bump("metadata_accesses")
        timings = self.hbm.config.timings
        return timings.row_closed_ns + self.hbm.config.burst_ns(64)

    # ---- protocol -------------------------------------------------------

    @abc.abstractmethod
    def access(self, request: MemoryRequest, now_ns: float) -> AccessResult:
        """Serve one LLC-miss request arriving at ``now_ns``.

        Contract: implementations must read ``request`` during the call
        and never retain a reference to it.  The driver's packed-trace
        fast path replays an entire stream through **one** reused
        mutable request object (see
        :meth:`~repro.traces.packed.PackedTrace.replay`), so a stored
        reference would silently mutate under the controller on the
        next iteration.  Derive and store scalars (``request.line``,
        ``request.addr``) instead — every in-tree controller already
        does.
        """

    def finish(self, now_ns: float) -> None:
        """Hook invoked once at end of simulation (drain dirty state)."""

    def reset_measurements(self) -> None:
        """Zero traffic/energy/statistics counters at the warm-up
        boundary, keeping all placement and metadata state."""
        if self.hbm is not None:
            self.hbm.reset()
        self.dram.reset()
        self.stats.reset()

    def metadata_bytes(self) -> int:
        """Total metadata footprint of the design, in bytes."""
        return 0

    def metadata_in_sram(self) -> bool:
        """Whether the whole metadata fits the 512KB SRAM budget."""
        return self.metadata_bytes() <= 512 * 1024

    # ---- derived statistics ----------------------------------------------

    def overfetch_fraction(self) -> float:
        """Fraction of bytes brought into HBM but never used (§IV-B)."""
        fetched = self.stats.get("fetched_bytes")
        if fetched == 0:
            return 0.0
        return self.stats.get("overfetch_bytes") / fetched

    def hit_rate(self) -> float:
        """Fraction of demand requests served from HBM."""
        demands = (self.stats.get("demand_reads")
                   + self.stats.get("demand_writes"))
        if demands == 0:
            return 0.0
        return self.stats.get("hbm_demand_hits") / demands
