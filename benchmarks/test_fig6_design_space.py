"""Figure 6 — block/page design-space exploration.

Sweeps Bumblebee's block size over {1,2,4}KB and page size over
{64,96,128}KB (nine configurations), reporting geomean normalised IPC and
the metadata budget of each.

Shape targets (paper Figure 6): the 2KB-block / 64KB-page point is the
best configuration (2.00 in the paper), 64KB pages beat 96/128KB at the
same block size, and every configuration's metadata fits the SRAM budget.
"""

from __future__ import annotations

import os

import pytest

from conftest import emit
from repro.analysis import format_figure6
from repro.analysis.artefacts import ARTEFACTS

KIB = 1024

#: Sweeping all nine points over all fourteen workloads is the single
#: most expensive bench; a representative workload subset covers the
#: locality classes that differentiate the configurations.
SWEEP_WORKLOADS = ("mcf", "wrf", "xz", "lbm", "xalancbmk", "roms")


@pytest.mark.benchmark(group="fig6")
def test_fig6_design_space(benchmark, harness):
    results = benchmark.pedantic(
        ARTEFACTS["6"].run, args=(harness,),
        kwargs={"workloads": SWEEP_WORKLOADS},
        rounds=1, iterations=1)
    emit("Figure 6", format_figure6(results))

    assert len(results) == 9
    best = max(results, key=lambda key: results[key]["norm_ipc"])
    paper_best = (2 * KIB, 64 * KIB)
    # The paper's best point wins or sits within 3% of the sweep's best.
    assert results[paper_best]["norm_ipc"] >= \
        results[best]["norm_ipc"] * 0.97

    # 64KB pages dominate larger pages at the paper's block size.
    assert results[(2 * KIB, 64 * KIB)]["norm_ipc"] >= \
        results[(2 * KIB, 128 * KIB)]["norm_ipc"] * 0.97

    # The chosen configuration satisfies the SRAM feasibility cut; the
    # smallest-block configurations sit right at the boundary (that
    # boundary is exactly why the paper's sweep stops at 1KB blocks).
    assert results[paper_best]["fits_sram"]
    assert sum(1 for cell in results.values() if cell["fits_sram"]) >= 8
