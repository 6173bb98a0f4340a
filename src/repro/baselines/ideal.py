"""Oracle upper bound: every access served at HBM speed, no movement.

Not a buildable design — an analysis instrument.  The ideal controller
maps every request to the stacked memory (wrapping modulo its capacity),
never moves data, never page-faults, and carries no metadata.  Its
normalised IPC is the ceiling any real policy could reach on a trace;
``headroom(design) = ideal - design`` quantifies how much performance a
policy leaves on the table, which the gap-analysis bench reports per
MPKI group.
"""

from __future__ import annotations

import numpy as np

from ..designs import register_design
from ..mem.timing import DeviceConfig
from ..sim.request import AccessResult, MemoryRequest
from .base import HybridMemoryController


class IdealHBMController(HybridMemoryController):
    """Everything hits an infinitely large HBM: the performance ceiling."""

    def __init__(self, hbm_config: DeviceConfig, dram_config: DeviceConfig,
                 name: str = "Ideal") -> None:
        super().__init__(hbm_config, dram_config, name=name)

    def access(self, request: MemoryRequest, now_ns: float) -> AccessResult:
        return self._demand_hbm(request.addr, request, now_ns)

    def batch_epoch_plan(self, addr, is_write):
        """Pass 1 of the epoch engine, with nothing to decide: every
        request hits HBM, wrapped modulo its capacity — exactly
        :meth:`access`'s ``_demand_hbm`` arithmetic — and scripts no
        movement."""
        from ..sim.vectorized import EpochPlan
        return EpochPlan(use_hbm=np.ones(addr.shape[0], dtype=bool),
                         local_addr=addr % self._hbm_capacity)

    def os_visible_bytes(self) -> int:
        """The oracle never faults: capacity is assumed sufficient."""
        return 1 << 62

    def metadata_bytes(self) -> int:
        return 0


@register_design(
    "Ideal",
    description="Infinite-HBM oracle: the performance ceiling")
def _build_ideal(hbm_config, dram_config, *, name="Ideal"):
    return IdealHBMController(hbm_config, dram_config, name=name)
