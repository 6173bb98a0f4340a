"""The paper's matrix artefacts (Figures 6-8, §IV-B over-fetch, §IV-D
overheads, ``repro validate``): each a cell plan plus a pure reducer
over the cells' :class:`~repro.analysis.metrics.WorkloadComparison`\\ s,
which reads the ``counts`` block instead of re-simulating.  The CLI runs
the plan through :mod:`repro.exec`; in code,
``figure8(run_cells(harness, cells))`` or ``ARTEFACTS["8a"].run(harness)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..baselines import FIGURE7_VARIANTS, FIGURE8_DESIGNS
from ..core.config import BumblebeeConfig, derive_geometry
from ..core.metadata import metadata_sizes
from ..designs import registry
from ..traces.spec import SPEC2017, SystemScale
from .experiments import ExperimentHarness, fitted_devices
from .metrics import geomean_speedup, summarise_group
from .plotting import bar_chart
from .report import (format_figure6, format_figure7, format_figure8,
                     format_overfetch, format_overheads)
from .validation import (check_figure7, check_figure8, check_metadata,
                         check_overfetch, render_report)

KIB = 1024

#: Figure 6's nine block-page points, as Bumblebee spec cells.
FIGURE6_SPECS = tuple(registry.expand_grid("Bumblebee", {
    "page_bytes": [64 * KIB, 96 * KIB, 128 * KIB],
    "block_bytes": [1 * KIB, 2 * KIB, 4 * KIB]}))


def by_design(comparisons) -> dict[str, list]:
    """Comparisons grouped by design name, in first-appearance order."""
    out: dict[str, list] = {}
    for comparison in comparisons:
        out.setdefault(comparison.design, []).append(comparison)
    return out


def figure6(comparisons, scale: SystemScale,
            specs: Sequence = FIGURE6_SPECS) -> dict[tuple[int, int], dict]:
    """Normalised IPC and metadata budget (on the refit devices) per
    block-page point, and the paper's scaled SRAM cut."""
    cells = by_design(comparisons)
    out = {}
    for spec in specs:
        config = BumblebeeConfig(**spec.param_dict)
        hbm, dram = fitted_devices(scale, config.page_bytes, config.hbm_ways)
        sizes = metadata_sizes(config, derive_geometry(
            config, hbm.geometry.capacity_bytes,
            dram.geometry.capacity_bytes))
        out[(config.block_bytes, config.page_bytes)] = {
            "norm_ipc": geomean_speedup(cells[spec.name]),
            "metadata_bytes": sizes.total_bytes,
            "fits_sram": sizes.total_bytes <= scale.sram_bytes,
        }
    return out


def figure7(comparisons, variants: Sequence[str] = FIGURE7_VARIANTS
            ) -> dict[str, float]:
    """Geomean speedup of each factor-breakdown variant present."""
    cells = by_design(comparisons)
    return {variant: geomean_speedup(cells[variant])
            for variant in variants if variant in cells}


def figure8(comparisons, designs: Sequence[str] = FIGURE8_DESIGNS,
            groups: Sequence[str] = ("high", "medium", "low", "all")
            ) -> dict[str, dict]:
    """Per-MPKI-group :class:`~repro.analysis.metrics.GroupSummary` of
    each design present; a group no workload falls in is left out."""
    cells = by_design(comparisons)
    out: dict[str, dict] = {}
    for design in (d for d in designs if d in cells):
        out[design] = {}
        for group in groups:
            try:
                out[design][group] = summarise_group(cells[design], group)
            except ValueError:
                continue
    return out


def overfetch(comparisons, designs: Sequence[str] = ("Hybrid2", "Bumblebee")
              ) -> dict[str, float]:
    """Share of the bytes brought into HBM never used (§IV-B), over
    every workload of each design present."""
    cells = by_design(comparisons)
    out = {}
    for design in (d for d in designs if d in cells):
        fetched = sum(c.counts["fetched_bytes"] for c in cells[design])
        unused = sum(c.counts["overfetch_bytes"] for c in cells[design])
        out[design] = unused / fetched if fetched else 0.0
    return out


def overheads(comparisons) -> dict:
    """Bumblebee's metadata-access time and mode-switch bytes against
    Hybrid2's (§IV-D), totalled over every workload."""
    cells = by_design(comparisons)
    totals = {design: {
        "mal_ns": sum((c.counts["total_metadata_ns"] for c in cells[design]),
                      0.0),
        "switch_bytes": sum(c.counts["mode_switch_bytes"]
                            for c in cells[design]),
    } for design in ("Bumblebee", "Hybrid2")}

    def reduction(key: str) -> float:
        theirs = totals["Hybrid2"][key]
        return 1.0 - totals["Bumblebee"][key] / theirs if theirs else 0.0

    return {"mal_reduction": reduction("mal_ns"),
            "mode_switch_reduction": reduction("switch_bytes"),
            "totals": totals}


def validation(comparisons) -> tuple[list, dict]:
    """``repro validate``'s shape checks, and the Figure 8 summaries
    its bar chart plots."""
    results = figure8(comparisons)
    return (check_figure8(results) + check_figure7(figure7(comparisons))
            + check_overfetch(overfetch(comparisons))
            + check_metadata(ExperimentHarness.sec4b_metadata())), results


def _render_validation(reduced: tuple[list, dict]) -> str:
    checks, results = reduced
    return render_report(checks) + "\n\n" + bar_chart(
        {design: groups["all"].norm_ipc
         for design, groups in results.items()},
        title="normalised IPC (all workloads)", baseline=1.0)


@dataclass(frozen=True)
class Artefact:
    """A plan's designs and default workloads, its pure
    ``reduce(comparisons, scale)``, the text ``render`` of the result and
    whether it ``passed`` (``validate``'s exit status)."""

    designs: tuple
    workloads: tuple
    reduce: Callable[[Sequence, SystemScale], Any]
    render: Callable[[Any], str]
    passed: Callable[[Any], bool] = lambda result: True

    def run(self, harness: ExperimentHarness,
            workloads: Sequence[str] | None = None, jobs: int | None = 1):
        """Fill the plan on ``harness`` (over its configured workloads
        by default; ``jobs`` > 1 fans out, identically) and reduce it."""
        from ..exec import enumerate_cells, run_cells
        cells = enumerate_cells(self.designs,
                                workloads or harness.config.workloads)
        return self.reduce(run_cells(harness, cells, jobs=jobs),
                           harness.config.scale)


def _unscaled(reduce: Callable) -> Callable:
    return lambda comparisons, scale: reduce(comparisons)


ALL_WORKLOADS = tuple(SPEC2017)
_FIG8 = tuple(FIGURE8_DESIGNS)

#: ``repro figure --id``'s matrix artefacts.  Figure 6 sweeps a workload
#: subset spanning the locality classes that separate its points.
ARTEFACTS: dict[str, Artefact] = {
    "6": Artefact(FIGURE6_SPECS,
                  ("mcf", "wrf", "xz", "lbm", "xalancbmk", "roms"),
                  figure6, format_figure6),
    "7": Artefact(tuple(FIGURE7_VARIANTS), ALL_WORKLOADS, _unscaled(figure7),
                  format_figure7),
    **{panel: Artefact(_FIG8, ALL_WORKLOADS, _unscaled(figure8),
                       lambda results, metric=metric:
                       format_figure8(results, metric))
       for panel, metric in (("8a", "norm_ipc"), ("8b", "norm_hbm_traffic"),
                             ("8c", "norm_dram_traffic"),
                             ("8d", "norm_energy"))},
    "overfetch": Artefact(("Hybrid2", "Bumblebee"), ALL_WORKLOADS,
                          _unscaled(overfetch), format_overfetch),
    "overheads": Artefact(("Bumblebee", "Hybrid2"), ALL_WORKLOADS,
                          _unscaled(overheads), format_overheads),
}

#: ``repro validate``: the union of Figures 7, 8 and over-fetch.
VALIDATION = Artefact(
    tuple(dict.fromkeys(_FIG8 + tuple(FIGURE7_VARIANTS))), ALL_WORKLOADS,
    _unscaled(validation), _render_validation,
    passed=lambda reduced: all(c.passed or c.skipped for c in reduced[0]))
