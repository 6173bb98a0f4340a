"""§IV-B — metadata storage budget and over-fetch analysis.

Two claims are regenerated:

* the metadata budget at full paper scale (1GB HBM + 10GB DRAM): the
  paper reports 334KB (110 PRT / 136 BLE / 88 hotness) fitting in 512KB
  SRAM, one to two orders of magnitude below prior designs;
* the fraction of data brought into HBM but never used before leaving
  (the paper: 13.7% Hybrid2 vs 13.3% Bumblebee despite Bumblebee's much
  larger blocks and pages).
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.analysis import format_metadata, format_overfetch
from repro.analysis.artefacts import ARTEFACTS
from repro.core.metadata import SRAM_BUDGET_BYTES


@pytest.mark.benchmark(group="sec4b")
def test_sec4b_metadata(benchmark, harness):
    report = benchmark.pedantic(harness.sec4b_metadata,
                                rounds=1, iterations=1)
    emit("SIV-B metadata", format_metadata(report))

    sizes = report["bumblebee"]
    # Paper: 334KB total, in the few-hundred-KB band, inside 512KB SRAM.
    assert 200 * 1024 < sizes.total_bytes < SRAM_BUDGET_BYTES
    assert report["bumblebee_fits_sram"]

    # 1-2 orders of magnitude below the prior designs (paper claim).
    for other in ("hybrid2_bytes", "alloy_bytes", "chameleon_bytes"):
        ratio = report[other] / sizes.total_bytes
        assert ratio > 10, (other, ratio)


@pytest.mark.benchmark(group="sec4b")
def test_sec4b_overfetch(benchmark, harness):
    results = benchmark.pedantic(ARTEFACTS["overfetch"].run,
                                 args=(harness,), rounds=1, iterations=1)
    emit("SIV-B over-fetch", format_overfetch(results))

    # Despite 8x larger blocks and 32x larger pages, Bumblebee's unused
    # share stays within a small factor of Hybrid2's fine-grained design
    # (the paper reports near parity: 13.3% vs 13.7%; measured values in
    # EXPERIMENTS.md).
    assert results["Bumblebee"] < 0.30
    assert results["Hybrid2"] < 0.30
    assert results["Bumblebee"] < results["Hybrid2"] * 4.0
