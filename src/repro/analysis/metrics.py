"""Aggregation of per-workload results into the paper's reported metrics.

Everything in Figures 6-8 is a *normalised* quantity — IPC, traffic, and
dynamic energy relative to the no-HBM baseline run of the same trace —
aggregated per MPKI group (Table II) with the geometric mean used for IPC
speedups and arithmetic means for traffic/energy ratios, following common
practice for those metric families.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable

from ..sim.driver import SimResult
from ..sim.stats import geomean
from ..traces.spec import MPKI_GROUPS


@dataclass(frozen=True)
class WorkloadComparison:
    """One design's result against the baseline on one workload.

    ``counts`` holds the raw totals §IV-B/D sum over workloads
    (``fetched_bytes``, ``overfetch_bytes``, ``total_metadata_ns``,
    ``mode_switch_bytes``), nested so it is no scalar metric.
    """

    workload: str
    design: str
    norm_ipc: float
    norm_hbm_traffic: float
    norm_dram_traffic: float
    norm_energy: float
    hbm_hit_rate: float
    overfetch_fraction: float
    metadata_latency_fraction: float
    page_faults: int
    counts: dict

    def to_record(self) -> dict:
        """``dataclasses.asdict(self)`` without its recursive deep copy
        (``counts`` is the one dict, of scalars)."""
        record = {name: getattr(self, name) for name in _COMPARISON_FIELDS}
        record["counts"] = dict(self.counts)
        return record


_COMPARISON_FIELDS = tuple(f.name for f in fields(WorkloadComparison))


def compare(result: SimResult, baseline: SimResult) -> WorkloadComparison:
    """Normalise one run against its no-HBM baseline.

    HBM traffic has no baseline counterpart (the baseline has no HBM), so
    it is normalised against the baseline's *DRAM* traffic — i.e. "HBM
    bytes moved per byte the plain system would have moved".
    """
    if result.workload != baseline.workload:
        raise ValueError(
            f"workload mismatch: {result.workload} vs {baseline.workload}")
    base_bytes = baseline.dram_traffic_bytes or 1
    stats = result.controller_stats
    fetched = stats.get("fetched_bytes", 0)
    overfetch = (stats.get("overfetch_bytes", 0) / fetched
                 if fetched else 0.0)
    return WorkloadComparison(
        workload=result.workload,
        design=result.controller,
        norm_ipc=result.normalised_ipc(baseline),
        norm_hbm_traffic=result.hbm_traffic_bytes / base_bytes,
        norm_dram_traffic=result.dram_traffic_bytes / base_bytes,
        norm_energy=result.normalised_energy(baseline),
        hbm_hit_rate=result.hbm_hit_rate,
        overfetch_fraction=overfetch,
        metadata_latency_fraction=result.metadata_latency_fraction,
        page_faults=stats.get("page_faults", 0),
        counts={
            "fetched_bytes": fetched,
            "overfetch_bytes": stats.get("overfetch_bytes", 0),
            "total_metadata_ns": result.total_metadata_ns,
            "mode_switch_bytes": stats.get("mode_switch_bytes", 0),
        },
    )


@dataclass
class GroupSummary:
    """Per-MPKI-group aggregate of one design (one Figure 8 bar)."""

    design: str
    group: str
    norm_ipc: float
    norm_hbm_traffic: float
    norm_dram_traffic: float
    norm_energy: float
    workloads: list[str] = field(default_factory=list)


def summarise_group(comparisons: Iterable[WorkloadComparison],
                    group: str) -> GroupSummary:
    """Aggregate one design's comparisons over one MPKI group.

    Args:
        comparisons: Comparisons of a single design (mixed workloads ok).
        group: "high", "medium", "low", or "all".

    Raises:
        ValueError: when no comparison falls in the group.
    """
    if group == "all":
        members = {name for names in MPKI_GROUPS.values() for name in names}
    else:
        members = set(MPKI_GROUPS[group])
    picked = [c for c in comparisons if c.workload in members]
    if not picked:
        raise ValueError(f"no workloads matched group {group!r}")
    designs = {c.design for c in picked}
    if len(designs) != 1:
        raise ValueError(f"mixed designs in group summary: {designs}")
    return GroupSummary(
        design=picked[0].design,
        group=group,
        norm_ipc=geomean([c.norm_ipc for c in picked]),
        norm_hbm_traffic=sum(c.norm_hbm_traffic for c in picked)
        / len(picked),
        norm_dram_traffic=sum(c.norm_dram_traffic for c in picked)
        / len(picked),
        norm_energy=sum(c.norm_energy for c in picked) / len(picked),
        workloads=[c.workload for c in picked],
    )


def geomean_speedup(comparisons: Iterable[WorkloadComparison]) -> float:
    """Geometric-mean normalised IPC across comparisons (Figure 7 bars)."""
    values = [c.norm_ipc for c in comparisons]
    if not values:
        raise ValueError("no comparisons provided")
    return geomean(values)
