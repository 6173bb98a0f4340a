"""Extended design comparison — MemPod and the oracle beside Figure 8.

Adds the related-work designs the paper cites but does not plot
(MemPod's clustered epoch migration) and the ideal upper bound, over a
locality-diverse workload subset.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.analysis import bar_chart
from repro.designs import registry
from repro.sim import SimulationDriver

DESIGNS = ("Banshee", "Chameleon", "MemPod", "Bumblebee", "Ideal")
WORKLOADS = ("mcf", "wrf", "xz", "roms", "lbm")


def measure(harness):
    driver = SimulationDriver(harness.config.cpu)
    means: dict[str, float] = {}
    for design in DESIGNS:
        total = 0.0
        for workload in WORKLOADS:
            trace = harness.trace(workload)
            base = harness.baseline(workload)
            controller = registry.build(
                design, harness.hbm_config, harness.dram_config,
                sram_bytes=harness.config.scale.sram_bytes)
            result = driver.run(controller, trace, workload=workload,
                                warmup=harness.config.warmup)
            total += result.normalised_ipc(base)
        means[design] = total / len(WORKLOADS)
    return means


@pytest.mark.benchmark(group="extended")
def test_extended_designs(benchmark, harness):
    results = benchmark.pedantic(measure, args=(harness,),
                                 rounds=1, iterations=1)
    emit("Extended designs (mean normalised IPC, 5 workloads)",
         bar_chart(results, baseline=1.0))

    # The oracle tops everything; Bumblebee beats the extra POM design.
    assert results["Ideal"] >= max(v for d, v in results.items()
                                   if d != "Ideal") * 0.999
    assert results["Bumblebee"] >= results["MemPod"] * 0.98
    # MemPod is a credible design: comfortably above the baseline.
    assert results["MemPod"] > 1.2
