"""Technology sensitivity — Bumblebee on future memory parts.

The paper evaluates one technology point (HBM2 + DDR4-3200).  This bench
re-runs Bumblebee on HBM3-class and DDR5-class parts and across stack
capacities, answering the natural follow-up questions:

* does the design keep helping when the off-chip memory gets faster
  (DDR5 narrows the latency/bandwidth gap)?
* how does the benefit scale with stack capacity (more HBM => more of
  the footprint resident => diminishing pressure on the policy)?
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.analysis import bar_chart
from repro.designs import registry
from repro.mem import ddr4_3200_config, ddr5_4800_config, hbm2_config, \
    hbm3_config
from repro.sim import SimulationDriver
from repro.traces import DEFAULT_SCALE, workload_trace

WORKLOADS = ("mcf", "wrf", "roms", "lbm")


def run_point(label, hbm_config, dram_config, harness):
    driver = SimulationDriver(harness.config.cpu)
    total = 0.0
    count = 0
    for workload in WORKLOADS:
        trace = harness.trace(workload)
        base = driver.run(registry.build("No-HBM", hbm_config,
                                         dram_config),
                          trace, workload=workload,
                          warmup=harness.config.warmup)
        bee = driver.run(
            registry.build("Bumblebee", hbm_config, dram_config,
                           sram_bytes=harness.config.scale.sram_bytes),
            trace, workload=workload, warmup=harness.config.warmup)
        total += bee.normalised_ipc(base)
        count += 1
    return total / count


def sweep(harness):
    scale = harness.config.scale
    points = {
        "HBM2+DDR4 (paper)": (hbm2_config(scale.hbm_bytes),
                              ddr4_3200_config(scale.dram_bytes)),
        "HBM3+DDR4": (hbm3_config(scale.hbm_bytes),
                      ddr4_3200_config(scale.dram_bytes)),
        "HBM2+DDR5": (hbm2_config(scale.hbm_bytes),
                      ddr5_4800_config(scale.dram_bytes)),
        "HBM2 x2 capacity": (hbm2_config(scale.hbm_bytes * 2),
                             ddr4_3200_config(scale.dram_bytes)),
        "HBM2 /2 capacity": (hbm2_config(scale.hbm_bytes // 2),
                             ddr4_3200_config(scale.dram_bytes)),
    }
    return {label: run_point(label, hbm, dram, harness)
            for label, (hbm, dram) in points.items()}


@pytest.mark.benchmark(group="technology")
def test_technology_sweep(benchmark, harness):
    results = benchmark.pedantic(sweep, args=(harness,),
                                 rounds=1, iterations=1)
    emit("Technology sensitivity (mean normalised IPC, 4 workloads)",
         bar_chart(results, baseline=1.0))

    paper = results["HBM2+DDR4 (paper)"]
    # The design helps at every technology point.
    assert all(v > 1.0 for v in results.values())
    # A faster off-chip memory narrows (but does not erase) the gain.
    assert results["HBM2+DDR5"] <= paper * 1.05
    # More stack capacity never hurts; less never helps.
    assert results["HBM2 x2 capacity"] >= results["HBM2 /2 capacity"]
