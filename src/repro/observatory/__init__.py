"""Campaign observatory: queryable run store + regression gating.

The durable sink behind every run artifact the project produces:
:class:`RunStore` ingests campaign/sweep/chaos JSONL files and the
benchmark suite's machine-readable ``BENCH_*.json`` perf artifacts into
sqlite (idempotently — re-ingesting the same file adds zero rows),
:func:`check_regression` gates a fresh campaign against pinned golden
runs with per-metric tolerances, and :func:`render_dashboard` turns the
store into a single static HTML file (matrices + per-version trend
lines).  Surfaced on the CLI as ``repro db
ingest|query|trend|regress|pin|dashboard`` and as ``--db PATH`` on
``repro campaign`` / ``repro sweep``.
"""

from .store import RunStore, record_hash, scalar_metrics
from .regress import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    RegressCheck,
    check_regression,
    load_golden,
    pin_golden,
    regression_passed,
    render_regress,
)
from .dashboard import HEADLINE_METRICS, render_dashboard

__all__ = [
    "RunStore",
    "record_hash",
    "scalar_metrics",
    "RegressCheck",
    "check_regression",
    "load_golden",
    "pin_golden",
    "regression_passed",
    "render_regress",
    "DEFAULT_ABS_TOL",
    "DEFAULT_REL_TOL",
    "HEADLINE_METRICS",
    "render_dashboard",
]
