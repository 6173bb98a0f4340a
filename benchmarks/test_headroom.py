"""Headroom analysis — how close each design gets to the oracle.

The :class:`~repro.baselines.ideal.IdealHBMController` serves every
access at stacked-memory speed with no movement, faults, or metadata —
the ceiling any policy could reach on a trace.  This bench reports each
design's captured share of that ceiling per MPKI group, an analysis the
paper motivates but does not plot.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.analysis import grouped_bars
from repro.analysis.artefacts import figure8
from repro.baselines import FIGURE8_DESIGNS
from repro.exec import enumerate_cells, run_cells

DESIGNS = FIGURE8_DESIGNS + ["Ideal"]
GROUPS = ("high", "medium", "low", "all")


def measure(harness):
    results = figure8(run_cells(harness, enumerate_cells(
        DESIGNS, harness.config.workloads)), DESIGNS)
    captured: dict[str, dict[str, float]] = {}
    for design in DESIGNS:
        captured[design] = {}
        for group in GROUPS:
            ideal = results["Ideal"][group].norm_ipc
            mine = results[design][group].norm_ipc
            captured[design][group] = (mine - 1.0) / (ideal - 1.0) \
                if ideal > 1.0 else 1.0
    return results, captured


@pytest.mark.benchmark(group="headroom")
def test_headroom_vs_oracle(benchmark, harness):
    results, captured = benchmark.pedantic(measure, args=(harness,),
                                           rounds=1, iterations=1)
    emit("Headroom — share of the oracle's speedup captured",
         grouped_bars(captured, GROUPS))

    ideal = results["Ideal"]
    # The oracle bounds every design in every group.
    for design in FIGURE8_DESIGNS:
        for group in GROUPS:
            assert results[design][group].norm_ipc \
                <= ideal[group].norm_ipc * 1.02, (design, group)

    # Bumblebee captures the largest share of the achievable speedup.
    for design in FIGURE8_DESIGNS:
        if design == "Bumblebee":
            continue
        assert captured["Bumblebee"]["all"] >= \
            captured[design]["all"] * 0.98, design

    # And a substantial absolute share where it matters (high MPKI).
    assert captured["Bumblebee"]["high"] > 0.5
