"""The normalisation baseline: a system with no die-stacked HBM.

Every figure in the paper's evaluation is normalised to "a baseline system
without HBM" (§IV-A): all requests go to off-chip DDR4, addresses map
modulo the module capacity, and no metadata exists.
"""

from __future__ import annotations

import numpy as np

from ..designs import register_design
from ..mem.timing import DeviceConfig
from ..sim.request import AccessResult, MemoryRequest
from .base import HybridMemoryController


class NoHBMController(HybridMemoryController):
    """Off-chip DRAM only — the denominator of every normalised metric."""

    def __init__(self, dram_config: DeviceConfig,
                 name: str = "No-HBM") -> None:
        super().__init__(hbm_config=None, dram_config=dram_config, name=name)

    def access(self, request: MemoryRequest, now_ns: float) -> AccessResult:
        return self._demand_dram(request.addr, request, now_ns)

    def batch_epoch_plan(self, addr, is_write):
        """Pass 1 of the epoch engine, with nothing to decide: every
        request goes to off-chip DRAM, wrapped modulo its capacity —
        exactly :meth:`access`'s ``_demand_dram`` arithmetic — and
        scripts no movement."""
        from ..sim.vectorized import EpochPlan
        return EpochPlan(use_hbm=np.zeros(addr.shape[0], dtype=bool),
                         local_addr=addr % self._dram_capacity)

    def os_visible_bytes(self) -> int:
        """The stack is a cache (or absent): the OS sees only DRAM."""
        return self.dram.capacity_bytes


@register_design(
    "No-HBM",
    description="Off-chip DRAM only: the denominator of every "
                "normalised metric")
def _build_no_hbm(hbm_config, dram_config, *, name="No-HBM"):
    return NoHBMController(dram_config, name=name)
