"""Multi-programmed mixes — an evaluation beyond the paper's rate runs.

The Table I system is multi-core; a mix makes different regions of the
flat address space want different cHBM:mHBM treatment *simultaneously*,
which is the sharpest test of Bumblebee's per-set adaptivity (a static
split must compromise across co-runners; Bumblebee partitions each
remapping set independently).
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.baselines import make_controller
from repro.sim import SimulationDriver
from repro.traces import MIX_PRESETS, build_mix, mix_trace

DESIGNS = ("No-HBM", "Banshee", "Chameleon", "Hybrid2", "Bumblebee")


def run_mixes(harness):
    driver = SimulationDriver(harness.config.cpu)
    total = harness.config.requests + harness.config.warmup
    out: dict[str, dict[str, float]] = {}
    for preset in sorted(MIX_PRESETS):
        members = build_mix(MIX_PRESETS[preset])
        trace = mix_trace(members, total, seed=harness.config.seed)
        baseline = None
        out[preset] = {}
        for design in DESIGNS:
            controller = make_controller(
                design, harness.hbm_config, harness.dram_config,
                sram_bytes=harness.config.scale.sram_bytes)
            result = driver.run(controller, trace, workload=preset,
                                warmup=harness.config.warmup)
            assert driver.last_engine == "vector", (preset, design)
            if design == "No-HBM":
                baseline = result
            out[preset][design] = result.normalised_ipc(baseline)
    return out


@pytest.mark.benchmark(group="mixes")
def test_multiprogrammed_mixes(benchmark, harness):
    results = benchmark.pedantic(run_mixes, args=(harness,),
                                 rounds=1, iterations=1)
    lines = [f"{'mix':>16} " + " ".join(f"{d[:9]:>9}" for d in DESIGNS)]
    for preset, row in results.items():
        lines.append(f"{preset:>16} "
                     + " ".join(f"{row[d]:9.2f}" for d in DESIGNS))
    emit("Multi-programmed mixes", "\n".join(lines))

    for preset, row in results.items():
        # Bumblebee within 5% of the best design on every mix, and
        # clearly above the no-HBM baseline.
        best = max(v for d, v in row.items() if d != "No-HBM")
        assert row["Bumblebee"] >= best * 0.95, preset
        assert row["Bumblebee"] > 1.05, preset
