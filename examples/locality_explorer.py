#!/usr/bin/env python3
"""Locality explorer: how the cHBM:mHBM ratio tracks access patterns.

Sweeps a grid of synthetic workloads over the (spatial, temporal)
locality plane, runs each through Bumblebee, and prints the cHBM:mHBM
split the controller converged to plus the resulting speedup — the
paper's central claim that the ratio adapts to the workload (§III):

* strong spatial  -> mostly mHBM (whole pages migrate);
* weak spatial + strong temporal -> cHBM absorbs the hot blocks;
* weak everything -> the stack is left mostly idle (no wasted movement).

Run:
    python examples/locality_explorer.py
"""

from __future__ import annotations

from repro import (
    DEFAULT_SCALE,
    BumblebeeController,
    SimulationDriver,
    ddr4_3200_config,
    hbm2_config,
)
from repro.baselines import NoHBMController
from repro.core import WayMode
from repro.traces import SyntheticSpec, SyntheticTraceGenerator

MIB = 1 << 20
GRID = (0.1, 0.5, 0.9)
REQUESTS = 60_000


def usage_split(controller: BumblebeeController) -> tuple[int, int, int]:
    chbm = sum(b.count_mode(WayMode.CHBM) for b in controller.ble)
    mhbm = sum(b.count_mode(WayMode.MHBM) for b in controller.ble)
    total = controller.geometry.sets * controller.geometry.hbm_ways
    return chbm, mhbm, total - chbm - mhbm


def main() -> None:
    hbm = hbm2_config(DEFAULT_SCALE.hbm_bytes)
    dram = ddr4_3200_config(DEFAULT_SCALE.dram_bytes)
    driver = SimulationDriver()

    print(f"{'spatial':>8} {'temporal':>9} | {'cHBM':>6} {'mHBM':>6} "
          f"{'free':>6} | {'hit':>6} {'speedup':>8}")
    print("-" * 60)
    for spatial in GRID:
        for temporal in GRID:
            spec = SyntheticSpec(
                name=f"s{spatial}-t{temporal}",
                footprint_bytes=128 * MIB,
                spatial=spatial, temporal=temporal,
                mpki=16.0, hot_fraction=0.01,
            )
            trace = SyntheticTraceGenerator(spec, seed=7).generate_packed(
                REQUESTS)
            baseline = driver.run(NoHBMController(dram), trace,
                                  workload=spec.name)
            controller = BumblebeeController(hbm, dram)
            result = driver.run(controller, trace, workload=spec.name)
            chbm, mhbm, free = usage_split(controller)
            print(f"{spatial:8.1f} {temporal:9.1f} | {chbm:6d} {mhbm:6d} "
                  f"{free:6d} | {result.hbm_hit_rate:6.1%} "
                  f"{result.normalised_ipc(baseline):7.2f}x")

    print("\ncHBM/mHBM counts are HBM pages (64KB frames) across all "
          "remapping sets;\nthe split is a runtime outcome, not a boot "
          "option.")


if __name__ == "__main__":
    main()
