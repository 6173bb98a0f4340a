"""§IV-D — metadata-access and mode-switch overhead reductions.

The paper attributes part of Bumblebee's win over Hybrid2 to a 69.7%
reduction in metadata-access overhead (all Bumblebee metadata fits SRAM,
while Hybrid2 spills to HBM) and a 44.6% reduction in mode-switch data
movement (multiplexed space moves only the missing blocks).
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.analysis import format_overheads
from repro.analysis.artefacts import ARTEFACTS


@pytest.mark.benchmark(group="sec4d")
def test_sec4d_overheads(benchmark, harness):
    report = benchmark.pedantic(ARTEFACTS["overheads"].run,
                                args=(harness,), rounds=1, iterations=1)
    emit("SIV-D overheads", format_overheads(report))

    # Bumblebee's SRAM-resident metadata eliminates (>= paper's 69.7%
    # reduction of) the critical-path metadata latency Hybrid2 pays.
    assert report["mal_reduction"] >= 0.65

    # Multiplexed space cuts mode-switch movement (paper: 44.6%).
    assert report["mode_switch_reduction"] >= 0.40

    # Hybrid2 really does pay both costs in this harness.
    assert report["totals"]["Hybrid2"]["mal_ns"] > 0
    assert report["totals"]["Hybrid2"]["switch_bytes"] > 0
