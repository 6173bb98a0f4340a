"""Ablation benches beyond the paper's figures.

DESIGN.md calls out several design choices the paper fixes by fiat; these
benches sweep them to show each sits at (or near) a local optimum:

* HBM set associativity (8-way in §IV-A);
* the hot table's off-chip queue depth (8 entries in §IV-A);
* the "most blocks" cHBM->mHBM switch threshold (majority in §III-E);
* the zombie-eviction patience window.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.analysis import geomean_speedup
from repro.designs import registry
from repro.exec import enumerate_cells, run_cells

#: Locality-diverse subset keeps each sweep affordable.
SWEEP_WORKLOADS = ("mcf", "wrf", "xz", "roms")


def run_sweep(harness, field, values):
    """Geomean speedup per value of one Bumblebee parameter, each value
    a :class:`~repro.designs.DesignSpec` cell on the execution plane."""
    specs = registry.expand_grid("Bumblebee", {field: list(values)})
    run_cells(harness, enumerate_cells(specs, SWEEP_WORKLOADS))
    results = {value: geomean_speedup(
                   [harness.cached_comparison(spec, workload)
                    for workload in SWEEP_WORKLOADS])
               for value, spec in zip(values, specs)}
    body = "\n".join(f"  {field}={value}: {speedup:.3f}"
                     for value, speedup in results.items())
    emit(f"Ablation — {field}", body)
    return results


@pytest.mark.benchmark(group="ablation")
def test_ablation_hot_queue_depth(benchmark, harness):
    results = benchmark.pedantic(
        run_sweep, args=(harness, "hot_queue_dram_entries", (2, 8, 32)),
        rounds=1, iterations=1)
    # The paper's choice of 8 is within 5% of the best swept value.
    assert results[8] >= max(results.values()) * 0.95


@pytest.mark.benchmark(group="ablation")
def test_ablation_switch_threshold(benchmark, harness):
    results = benchmark.pedantic(
        run_sweep,
        args=(harness, "most_blocks_fraction", (0.25, 0.5, 0.75)),
        rounds=1, iterations=1)
    assert results[0.5] >= max(results.values()) * 0.95


@pytest.mark.benchmark(group="ablation")
def test_ablation_zombie_patience(benchmark, harness):
    results = benchmark.pedantic(
        run_sweep, args=(harness, "zombie_patience", (16, 64, 256)),
        rounds=1, iterations=1)
    assert results[64] >= max(results.values()) * 0.95


@pytest.mark.benchmark(group="ablation")
def test_ablation_associativity(benchmark, harness):
    # The harness refits the devices to each way count's set size.
    results = benchmark.pedantic(
        run_sweep, args=(harness, "hbm_ways", (4, 8, 16)),
        rounds=1, iterations=1)
    assert results[8] >= max(results.values()) * 0.95
