"""MemPod (Prodromou et al., HPCA 2017) — clustered POM baseline.

MemPod is cited by the Bumblebee paper ([8]) as a flat-address-space
migration design with coarse granularity.  It partitions both memories
into independent *pods*; each pod tracks hot pages with the
Majority-Element-Algorithm (MEA) counters and, at every epoch boundary,
migrates its current majority candidates into the pod's HBM slice,
swapping out the coldest residents.  Epoch-batched migration makes its
bandwidth cost predictable but its reaction time one epoch — the
"slower migration decision" trade the Bumblebee paper attributes to POM
designs generally.

Not part of the paper's Figure 8 comparison; provided as an extra
evaluation point (see ``benchmarks/test_extended_designs.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

try:
    import numpy as np
except ImportError:                                   # pragma: no cover
    np = None

from ..designs import register_design
from ..mem.timing import DeviceConfig
from ..sim.request import AccessResult, MemoryRequest
from .base import HybridMemoryController

PAGE_BYTES = 2048
PODS = 8


@dataclass
class _Pod:
    """One pod's remap state and MEA tracker."""

    resident: dict[int, int] = field(default_factory=dict)  # page -> slot
    free_slots: list[int] = field(default_factory=list)
    lru: dict[int, int] = field(default_factory=dict)       # page -> tick
    mea: dict[int, int] = field(default_factory=dict)       # candidates
    accesses: int = 0


class MemPodController(HybridMemoryController):
    """Epoch-batched MEA migration in independent pods."""

    #: MEA tracker entries per pod (the paper uses 32-64).
    MEA_ENTRIES = 64
    #: Accesses per pod between migration epochs.
    EPOCH_ACCESSES = 1000
    #: Pages migrated per epoch (bandwidth budget).
    MIGRATIONS_PER_EPOCH = 32

    def __init__(self, hbm_config: DeviceConfig, dram_config: DeviceConfig,
                 name: str = "MemPod") -> None:
        super().__init__(hbm_config, dram_config, name=name)
        slots_per_pod = self.hbm.capacity_bytes // PAGE_BYTES // PODS
        self._slots_per_pod = max(1, slots_per_pod)
        self._pods = [
            _Pod(free_slots=list(range(self._slots_per_pod)))
            for _ in range(PODS)]
        self._clock = 0

    def _locate(self, addr: int) -> tuple[int, int, int]:
        page = addr // PAGE_BYTES
        return page % PODS, page, addr % PAGE_BYTES

    def _hbm_addr(self, pod_index: int, slot: int, offset: int) -> int:
        return ((pod_index * self._slots_per_pod + slot) * PAGE_BYTES
                + offset) % self.hbm.capacity_bytes

    def access(self, request: MemoryRequest, now_ns: float) -> AccessResult:
        self._clock += 1
        pod_index, page, offset = self._locate(request.addr)
        pod = self._pods[pod_index]
        pod.accesses += 1
        self._mea_update(pod, page)
        if pod.accesses % self.EPOCH_ACCESSES == 0:
            self._epoch_migrate(pod_index, now_ns)
        slot = pod.resident.get(page)
        if slot is not None:
            pod.lru[page] = self._clock
            return self._demand_hbm(
                self._hbm_addr(pod_index, slot, offset), request, now_ns)
        return self._demand_dram(request.addr, request, now_ns)

    def batch_epoch_plan(self, addr, is_write):
        """Pass 1 of the epoch engine: every request runs through
        :meth:`access` in scalar order with the devices bound to a
        :class:`~repro.sim.vectorized.ScriptRecorder`.  MemPod's policy
        (MEA counters, per-pod access epochs, LRU ticks) never reads
        device timing — ``now_ns`` only reaches the movement engine — so
        the page moves a pod epoch issues before the demand become that
        request's ``PRE_BULK`` rows of the op table."""
        from ..sim.vectorized import EpochPlan, ScriptRecorder
        m = addr.shape[0]
        plan = EpochPlan(use_hbm=np.zeros(m, dtype=bool),
                         local_addr=np.zeros(m, dtype=np.int64))
        with ScriptRecorder(self) as recorder:
            run = recorder.run
            for i, (a, w) in enumerate(zip(addr.tolist(),
                                           is_write.tolist())):
                run(i, a, w)
        recorder.fill(plan)
        return plan

    def _mea_update(self, pod: _Pod, page: int) -> None:
        """Majority-Element-Algorithm counter update (Misra-Gries)."""
        if page in pod.mea:
            pod.mea[page] += 1
        elif len(pod.mea) < self.MEA_ENTRIES:
            pod.mea[page] = 1
        else:
            # Decrement-all step; drop exhausted candidates.
            exhausted = []
            for candidate in pod.mea:
                pod.mea[candidate] -= 1
                if pod.mea[candidate] <= 0:
                    exhausted.append(candidate)
            for candidate in exhausted:
                del pod.mea[candidate]

    def _epoch_migrate(self, pod_index: int, now_ns: float) -> None:
        """Migrate the top MEA candidates into the pod's HBM slice."""
        pod = self._pods[pod_index]
        candidates = sorted(pod.mea.items(), key=lambda kv: -kv[1])
        migrated = 0
        for page, _count in candidates:
            if migrated >= self.MIGRATIONS_PER_EPOCH:
                break
            if page in pod.resident:
                continue
            slot = self._acquire_slot(pod_index, now_ns)
            if slot is None:
                break
            self.mover.fetch_to_hbm(
                (page * PAGE_BYTES) % self.dram.capacity_bytes,
                self._hbm_addr(pod_index, slot, 0), PAGE_BYTES, now_ns)
            pod.resident[page] = slot
            pod.lru[page] = self._clock
            migrated += 1
            self.stats.bump("pod_migrations")
        pod.mea.clear()
        self.stats.bump("epochs")

    def _acquire_slot(self, pod_index: int, now_ns: float) -> int | None:
        pod = self._pods[pod_index]
        if pod.free_slots:
            return pod.free_slots.pop()
        if not pod.resident:
            return None
        victim = min(pod.resident, key=lambda p: pod.lru.get(p, 0))
        slot = pod.resident.pop(victim)
        pod.lru.pop(victim, None)
        self.mover.writeback_to_dram(
            self._hbm_addr(pod_index, slot, 0),
            (victim * PAGE_BYTES) % self.dram.capacity_bytes,
            PAGE_BYTES, now_ns)
        self.stats.bump("pod_evictions")
        return slot

    def metadata_bytes(self) -> int:
        """Per-pod remap entries (4B per HBM slot) + MEA counters."""
        return PODS * (self._slots_per_pod * 4 + self.MEA_ENTRIES * 6)

    def metadata_in_sram(self) -> bool:
        return True


@register_design(
    "MemPod",
    description="Epoch-batched MEA migration in independent pods")
def _build_mempod(hbm_config, dram_config, *, name="MemPod"):
    return MemPodController(hbm_config, dram_config, name=name)
