#!/usr/bin/env python3
"""Capacity pressure: what happens when the footprint outgrows DRAM.

Table II's roms (10.6GB) and cam4 (10.8GB) exceed the 10GB off-chip
module.  A cache design surrenders the whole stack to caching, so the OS
swaps; POM and hybrid designs expose the stack as memory and absorb the
overflow.  Bumblebee additionally *compels* cHBM back to mHBM under
footprint pressure (§III-E high-memory-footprint movement) — the batch
flush this example makes visible.

Run:
    python examples/capacity_pressure.py
"""

from __future__ import annotations

from repro import (
    DEFAULT_SCALE,
    SimulationDriver,
    ddr4_3200_config,
    hbm2_config,
    registry,
    workload_trace,
)

DESIGNS = ("No-HBM", "Banshee", "AlloyCache", "Chameleon", "Hybrid2",
           "Bumblebee")
REQUESTS = 100_000


def main() -> None:
    hbm = hbm2_config(DEFAULT_SCALE.hbm_bytes)
    dram = ddr4_3200_config(DEFAULT_SCALE.dram_bytes)
    driver = SimulationDriver()
    trace = workload_trace("roms", REQUESTS)
    dram_mb = dram.geometry.capacity_bytes >> 20
    print(f"roms footprint exceeds the {dram_mb} MiB off-chip module; "
          f"OS-visible capacity decides who page-faults.\n")
    print(f"{'design':>12} {'OS-visible':>11} {'faults':>8} {'IPC':>7} "
          f"{'vs no-HBM':>10}")
    print("-" * 55)

    baseline = None
    for design in DESIGNS:
        controller = registry.build(design, hbm, dram,
                                    sram_bytes=DEFAULT_SCALE.sram_bytes)
        result = driver.run(controller, trace, workload="roms")
        if design == "No-HBM":
            baseline = result
        visible_mb = controller.os_visible_bytes() >> 20
        faults = result.controller_stats.get("page_faults", 0)
        speedup = result.normalised_ipc(baseline)
        print(f"{design:>12} {visible_mb:9d}MB {faults:8d} "
              f"{result.ipc:7.3f} {speedup:9.2f}x")
        if design == "Bumblebee":
            flushes = result.controller_stats.get("hmf_flushes", 0)
            print(f"{'':>12}  (high-memory-footprint batch flushes: "
                  f"{flushes} — cHBM returned to the OS)")


if __name__ == "__main__":
    main()
