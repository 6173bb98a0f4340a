#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Runs the full experiment harness — Figure 1, Table II, Figure 6, the
§IV-B metadata/over-fetch analyses, Figure 7, Figures 8(a)-(d), and the
§IV-D overhead comparison — and prints each artefact in the paper's
layout.  This is the long-form version of what the ``benchmarks/``
suite runs; expect ~20-40 minutes at the default window.

Run:
    python examples/paper_figures.py [requests] [warmup]
"""

from __future__ import annotations

import sys
import time

from repro import ExperimentConfig, ExperimentHarness
from repro.analysis import (
    format_figure1,
    format_figure8,
    format_metadata,
    format_table2,
)
from repro.analysis.artefacts import ARTEFACTS


def banner(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    requests = int(sys.argv[1]) if len(sys.argv) > 1 else 70_000
    warmup = int(sys.argv[2]) if len(sys.argv) > 2 else 40_000
    harness = ExperimentHarness(ExperimentConfig(requests=requests,
                                                 warmup=warmup))
    started = time.time()

    banner("Figure 1 — line utilisation (mcf / wrf / xz)")
    print(format_figure1(harness.figure1_line_utilisation()))

    banner("Table II — benchmark characteristics")
    print(format_table2(harness.table2_characteristics()))

    banner("SIV-B — metadata budgets (paper scale)")
    print(format_metadata(harness.sec4b_metadata()))

    def show(fig: str) -> None:
        # Each artefact fills its cells on the shared harness, so the
        # figures share every cell they have in common.
        artefact = ARTEFACTS[fig]
        print(artefact.render(artefact.run(
            harness, workloads=artefact.workloads)))

    banner("Figure 6 — design-space exploration")
    show("6")

    banner("Figure 7 — performance factor breakdown")
    show("7")

    banner("Figure 8 — comparison against state-of-the-art designs")
    figure8 = ARTEFACTS["8a"].run(harness)
    for metric in ("norm_ipc", "norm_hbm_traffic", "norm_dram_traffic",
                   "norm_energy"):
        print(format_figure8(figure8, metric))
        print()

    banner("SIV-B — over-fetch analysis")
    show("overfetch")

    banner("SIV-D — overheads vs Hybrid2")
    show("overheads")

    print(f"\nAll artefacts regenerated in {time.time() - started:.0f}s.")


if __name__ == "__main__":
    main()
