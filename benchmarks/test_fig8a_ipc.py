"""Figure 8(a) — normalised IPC against state-of-the-art designs.

Runs Banshee, Alloy Cache, Unison Cache, Chameleon, Hybrid2, and
Bumblebee over the Table II suite, reporting geomean normalised IPC per
MPKI group.

Shape targets (paper Figure 8a): Bumblebee is the best design in every
group and overall; the gains concentrate in the high/medium groups while
the low-MPKI group compresses toward 1.0; Unison is the weakest design.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.analysis import format_figure8
from repro.analysis.artefacts import ARTEFACTS
from repro.baselines import FIGURE8_DESIGNS


@pytest.mark.benchmark(group="fig8")
def test_fig8a_ipc(benchmark, harness):
    results = benchmark.pedantic(ARTEFACTS["8a"].run, args=(harness,),
                                 rounds=1, iterations=1)
    emit("Figure 8(a)", format_figure8(results, "norm_ipc"))

    bumblebee = results["Bumblebee"]
    for design in FIGURE8_DESIGNS:
        if design == "Bumblebee":
            continue
        # Best-in-class per group (2% tie tolerance).
        for group in ("high", "medium", "all"):
            assert bumblebee[group].norm_ipc >= \
                results[design][group].norm_ipc * 0.98, (design, group)

    # High-MPKI gains exceed low-MPKI gains (paper: 46.7% vs 9.9%).
    assert bumblebee["high"].norm_ipc > bumblebee["low"].norm_ipc

    # The weakest cache design sits near the baseline.
    assert results["UnisonCache"]["all"].norm_ipc < \
        bumblebee["all"].norm_ipc
