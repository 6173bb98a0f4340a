#!/usr/bin/env python3
"""Multi-programmed mixes: per-set adaptivity under co-running programs.

Runs the canonical mixes (e.g. the Figure 1 trio mcf+wrf+xz co-running)
through Bumblebee and the strongest baselines.  Because each program owns
a different region of the flat address space, different remapping sets
see different locality — Bumblebee partitions each set independently,
which a global static split cannot.

Run:
    python examples/multiprogram_mix.py [preset]
"""

from __future__ import annotations

import sys

from repro import DEFAULT_SCALE, SimulationDriver, make_controller
from repro.analysis.experiments import fitted_devices
from repro.core import WayMode
from repro.traces import MIX_PRESETS, build_mix, member_share, mix_trace

DESIGNS = ("No-HBM", "Banshee", "Chameleon", "Hybrid2", "Bumblebee")
REQUESTS = 90_000
WARMUP = 40_000


def main() -> None:
    preset = sys.argv[1] if len(sys.argv) > 1 else "mix-fig1"
    members = build_mix(MIX_PRESETS[preset])
    trace = mix_trace(members, REQUESTS + WARMUP)
    shares = member_share(members, trace)
    print(f"mix {preset}: " + ", ".join(
        f"{name} {share:.0%}" for name, share in shares.items()))

    hbm, dram = fitted_devices(DEFAULT_SCALE)
    driver = SimulationDriver()
    baseline = None
    print(f"\n{'design':>12} {'norm IPC':>9} {'HBM hit':>8}")
    print("-" * 33)
    for design in DESIGNS:
        controller = make_controller(design, hbm, dram,
                                     sram_bytes=DEFAULT_SCALE.sram_bytes)
        result = driver.run(controller, trace, workload=preset,
                            warmup=WARMUP)
        if design == "No-HBM":
            baseline = result
        print(f"{design:>12} {result.normalised_ipc(baseline):9.2f} "
              f"{result.hbm_hit_rate:8.1%}")
        if design == "Bumblebee":
            per_region: dict[str, list[int]] = {}
            sets = controller.geometry.sets
            for set_index in range(sets):
                chbm = controller.ble[set_index].count_mode(WayMode.CHBM)
                mhbm = controller.ble[set_index].count_mode(WayMode.MHBM)
                per_region.setdefault("all", [0, 0])
                per_region["all"][0] += chbm
                per_region["all"][1] += mhbm
            chbm, mhbm = per_region["all"]
            print(f"{'':>12}  (final split: {chbm} cHBM / {mhbm} mHBM "
                  "pages, chosen per set)")


if __name__ == "__main__":
    main()
