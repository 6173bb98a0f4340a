"""Experiment harness, metric aggregation, campaigns, and report rendering.

The paper's matrix artefacts (a cell plan plus a reducer each, and the
shape checks of ``repro validate``) live in :mod:`.artefacts` and
:mod:`.validation`.

Cell fan-out (serial, process pool, supervised pool) and design-space
sweeps live on the execution plane, :mod:`repro.exec`.
"""

from .experiments import ExperimentConfig, ExperimentHarness, fitted_devices
from .metrics import (
    GroupSummary,
    WorkloadComparison,
    compare,
    geomean_speedup,
    summarise_group,
)
from .report import (
    format_figure1,
    format_figure6,
    format_figure7,
    format_figure8,
    format_metadata,
    format_overfetch,
    format_overheads,
    format_table2,
)
from .campaign import (
    Campaign,
    CampaignInterrupted,
    QuarantinedCell,
    run_campaign,
)
from .resultcache import ResultCache, default_cache_dir
from .devices import (
    DeviceReport,
    controller_device_reports,
    device_report,
    format_device_reports,
)
from .plotting import bar_chart, grouped_bars, heat_strip, sparkline
from .tracetools import (
    ReuseProfile,
    StrideProfile,
    TimeSeries,
    locality_fingerprint,
    reuse_distance_profile,
    stride_profile,
    windowed_statistics,
)
from .differential import (
    SANITIZE_DESIGNS,
    DiffCase,
    DifferentialReport,
    diff_results,
    load_reproducer,
    run_differential,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentHarness",
    "fitted_devices",
    "WorkloadComparison",
    "GroupSummary",
    "compare",
    "summarise_group",
    "geomean_speedup",
    "format_figure1",
    "format_table2",
    "format_figure6",
    "format_figure7",
    "format_figure8",
    "format_metadata",
    "format_overfetch",
    "format_overheads",
    "bar_chart",
    "heat_strip",
    "grouped_bars",
    "sparkline",
    "ReuseProfile",
    "StrideProfile",
    "TimeSeries",
    "reuse_distance_profile",
    "stride_profile",
    "windowed_statistics",
    "locality_fingerprint",
    "DeviceReport",
    "device_report",
    "controller_device_reports",
    "format_device_reports",
    "Campaign",
    "CampaignInterrupted",
    "QuarantinedCell",
    "run_campaign",
    "ResultCache",
    "default_cache_dir",
    "SANITIZE_DESIGNS",
    "DiffCase",
    "DifferentialReport",
    "diff_results",
    "load_reproducer",
    "run_differential",
]
