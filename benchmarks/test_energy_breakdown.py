"""Dynamic-energy decomposition — where Figure 8(d)'s joules go.

Splits each design's dynamic energy into activate / read-burst /
write-burst components per device, from the Table I IDD model.  The
decomposition explains the Figure 8(d) ordering: tag-in-HBM designs burn
bursts on probes and fills; scatter-heavy policies burn activates on row
conflicts; POM designs amortise activates over streaming rows.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.designs import registry
from repro.sim import SimulationDriver

DESIGNS = ("No-HBM", "AlloyCache", "Chameleon", "Bumblebee")
WORKLOADS = ("mcf", "wrf", "lbm", "roms")


def measure(harness):
    driver = SimulationDriver(harness.config.cpu)
    out: dict[str, dict[str, float]] = {}
    for design in DESIGNS:
        totals = {"hbm_act": 0.0, "hbm_rd": 0.0, "hbm_wr": 0.0,
                  "dram_act": 0.0, "dram_rd": 0.0, "dram_wr": 0.0}
        for workload in WORKLOADS:
            controller = registry.build(
                design, harness.hbm_config, harness.dram_config,
                sram_bytes=harness.config.scale.sram_bytes)
            result = driver.run(controller, harness.trace(workload),
                                workload=workload,
                                warmup=harness.config.warmup)
            totals["hbm_act"] += result.hbm_energy.activate_pj
            totals["hbm_rd"] += result.hbm_energy.read_pj
            totals["hbm_wr"] += result.hbm_energy.write_pj
            totals["dram_act"] += result.dram_energy.activate_pj
            totals["dram_rd"] += result.dram_energy.read_pj
            totals["dram_wr"] += result.dram_energy.write_pj
        out[design] = totals
    return out


@pytest.mark.benchmark(group="energy")
def test_energy_breakdown(benchmark, harness):
    results = benchmark.pedantic(measure, args=(harness,),
                                 rounds=1, iterations=1)
    keys = ("hbm_act", "hbm_rd", "hbm_wr", "dram_act", "dram_rd",
            "dram_wr")
    lines = [f"{'design':>11} " + " ".join(f"{k:>9}" for k in keys)
             + "   (uJ)"]
    for design, totals in results.items():
        lines.append(f"{design:>11} " + " ".join(
            f"{totals[k] / 1e6:9.1f}" for k in keys))
    emit("Dynamic energy decomposition", "\n".join(lines))

    # The baseline spends everything off-chip; nothing in the stack.
    assert results["No-HBM"]["hbm_act"] == 0.0

    # DRAM activates dominate the baseline's budget (ganged 8-chip rank
    # activations are the expensive event in the IDD model).
    base = results["No-HBM"]
    assert base["dram_act"] > base["dram_rd"]

    # Designs serving demand from the stack cut off-chip activate energy.
    for design in ("Chameleon", "Bumblebee"):
        assert results[design]["dram_act"] < base["dram_act"]

    # Alloy burns extra HBM activates/bursts on probes and fills.
    assert results["AlloyCache"]["hbm_act"] + \
        results["AlloyCache"]["hbm_rd"] > 0
