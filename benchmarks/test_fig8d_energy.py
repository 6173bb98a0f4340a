"""Figure 8(d) — normalised memory dynamic energy.

Reports each design's dynamic (activate + read/write burst) energy per
MPKI group, normalised to the no-HBM baseline, using the Table I IDD
currents through the Micron power-calc formulae.

Shape targets (paper Figure 8d): designs serving demand from the stack
save dynamic energy (HBM moves bits at ~3x fewer pJ than the ganged
8-chip DDR4 rank); the tag-in-HBM cache designs (Alloy/Unison) waste
energy on tag probes and fills; Bumblebee lands in the efficient band
(paper: 10.9%-20.1% below the baselines on average).
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.analysis import format_figure8
from repro.analysis.artefacts import ARTEFACTS


@pytest.mark.benchmark(group="fig8")
def test_fig8d_energy(benchmark, harness):
    results = benchmark.pedantic(ARTEFACTS["8d"].run, args=(harness,),
                                 rounds=1, iterations=1)
    emit("Figure 8(d)", format_figure8(results, "norm_energy"))

    # The POM designs with high HBM hit rates save dynamic energy.
    assert results["Chameleon"]["all"].norm_energy < 1.1

    # Bumblebee is more energy-efficient than the metadata-heavy and
    # tag-in-HBM designs.
    assert results["Bumblebee"]["all"].norm_energy < \
        results["AlloyCache"]["all"].norm_energy
    assert results["Bumblebee"]["all"].norm_energy < \
        results["UnisonCache"]["all"].norm_energy

    for design, groups in results.items():
        assert groups["all"].norm_energy < 4.0, design
