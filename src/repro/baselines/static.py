"""Static-partition variants of the Bumblebee machinery (Figure 7).

These reuse :class:`~repro.core.hmmc.BumblebeeController` with a pinned
cHBM:mHBM way split, so the comparison isolates *adaptivity* from the rest
of the design:

* **C-Only** — every HBM way is cache-only (a pure cHBM design at
  Bumblebee's granularity);
* **M-Only** — every way is POM-only (a pure mHBM design);
* **25%-C / 50%-C** — KNL-style fixed hybrid splits.

Vectorized replay
-----------------

The static splits ride the two-pass epoch engine
(:meth:`~repro.core.hmmc.BumblebeeController.batch_epoch_plan`), and
take its *direct* classification: with ``fixed_chbm_ways`` pinned the
controller is non-adaptive, so pass 1 skips the most-blocks switch
restriction entirely — every resident hit classifies pure straight from
the BLE snapshot, without the per-way block-count guard the adaptive
Bumblebee needs.  C-Only, with no mHBM way, also classifies the
off-chip accesses of the sets whose cHBM a flush disabled, where
nothing may move.  Every other request runs through ``access`` in
pass 1 and hands the walk its recorded op-table rows.
"""

from __future__ import annotations

from ..core.config import BumblebeeConfig, check_fraction
from ..core.hmmc import BumblebeeController
from ..designs import register_spec
from ..mem.timing import DeviceConfig


def _fixed(hbm_config: DeviceConfig, dram_config: DeviceConfig,
           chbm_ways: int, name: str,
           base: BumblebeeConfig | None = None) -> BumblebeeController:
    base = base or BumblebeeConfig()
    config = BumblebeeConfig(
        page_bytes=base.page_bytes,
        block_bytes=base.block_bytes,
        hbm_ways=base.hbm_ways,
        hot_queue_dram_entries=base.hot_queue_dram_entries,
        most_blocks_fraction=base.most_blocks_fraction,
        zombie_patience=base.zombie_patience,
        hmf_batch_sets=base.hmf_batch_sets,
        hmf_cooldown_requests=base.hmf_cooldown_requests,
        multiplexed=base.multiplexed,
        hmf_enabled=base.hmf_enabled,
        metadata_in_hbm=base.metadata_in_hbm,
        allocation=base.allocation,
        fixed_chbm_ways=chbm_ways,
        counter_bits=base.counter_bits,
    )
    return BumblebeeController(hbm_config, dram_config, config, name=name)


def c_only(hbm_config: DeviceConfig,
           dram_config: DeviceConfig) -> BumblebeeController:
    """All HBM as DRAM cache (C-Only bar of Figure 7)."""
    return _fixed(hbm_config, dram_config,
                  chbm_ways=BumblebeeConfig().hbm_ways, name="C-Only")


def m_only(hbm_config: DeviceConfig,
           dram_config: DeviceConfig) -> BumblebeeController:
    """All HBM as OS-visible POM (M-Only bar of Figure 7)."""
    return _fixed(hbm_config, dram_config, chbm_ways=0, name="M-Only")


def fixed_chbm(hbm_config: DeviceConfig, dram_config: DeviceConfig,
               fraction: float) -> BumblebeeController:
    """A KNL-style static split with ``fraction`` of HBM as cHBM."""
    check_fraction("fraction", fraction)
    ways = BumblebeeConfig().hbm_ways
    chbm_ways = round(ways * fraction)
    return _fixed(hbm_config, dram_config, chbm_ways=chbm_ways,
                  name=f"{int(fraction * 100)}%-C")


# The static-partition bars of Figure 7 are Bumblebee specs with a
# chbm_ratio override (ratio x hbm_ways cHBM-only ways, rest mHBM-only).
register_spec("C-Only", "Bumblebee", {"chbm_ratio": 1.0},
              description="All HBM as DRAM cache",
              figures=(("fig7", 0),))
register_spec("M-Only", "Bumblebee", {"chbm_ratio": 0.0},
              description="All HBM as OS-visible POM",
              figures=(("fig7", 1),))
register_spec("25%-C", "Bumblebee", {"chbm_ratio": 0.25},
              description="KNL-style static split, 25% cHBM",
              figures=(("fig7", 2),))
register_spec("50%-C", "Bumblebee", {"chbm_ratio": 0.5},
              description="KNL-style static split, 50% cHBM",
              figures=(("fig7", 3),))
