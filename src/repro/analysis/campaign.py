"""Measurement campaigns: a resumable design x workload result matrix.

A campaign runs every (design, workload) cell of a study, persists each
result as soon as it lands, and skips already-present cells on re-run —
so a long study survives interruption, and adding one design later costs
only its own column.  The stored records are plain dicts (schema below),
loadable without this package.

Records are stored as JSON Lines — one record appended per line — so
persisting cell *n* costs O(1) instead of rewriting the whole file
(the old format serialised every record on every flush, turning an
N-cell campaign into O(N^2) bytes written).  Legacy files holding a
single JSON array are still read, and are migrated to JSONL the first
time a new record is appended.

Record schema (one per line)::

    {
      "design": "Bumblebee", "workload": "mcf",
      "norm_ipc": 1.84, "norm_hbm_traffic": 1.2, ...
      "config": {"requests": 50000, "warmup": 30000, "seed": 1234,
                  "scale": 0.03125},
      "timing": {"gen_s": 0.21, "sim_s": 1.48, "trace_hits": 1, ...}
    }

The ``timing`` block is observability only — the wall-time split
between trace generation and simulation for the cell, plus the cell's
trace-cache counter deltas, measured in whichever process computed it.
It never participates in result comparisons (it differs run to run by
nature) and older records without it still load.  Constructing the
campaign with ``record_timing=False`` omits the block entirely, which
makes the file fully deterministic: a killed-and-resumed campaign is
then *byte-identical* to an uninterrupted one (the property the chaos
harness pins down).

Crash safety: records are appended through a
:class:`~repro.resilience.checkpoint.CheckpointWriter` (fsync'd, order
preserving, ENOSPC/EIO absorbed into a pending buffer), emission is in
deterministic cell order regardless of worker completion order, and a
torn tail left by a kill is detected, dropped, and compacted on load —
so at every instant the file is a clean prefix of the uninterrupted
run and ``repro campaign --resume`` completes exactly the remainder.
A SIGTERM or Ctrl-C during :meth:`Campaign.run` raises
:class:`CampaignInterrupted` *after* flushing completed cells, carrying
the resume hint.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..designs import DesignSpec
from ..resilience.checkpoint import (CheckpointWriter, read_jsonl,
                                     recover_jsonl)
from .experiments import ExperimentHarness
from .metrics import WorkloadComparison


class CampaignInterrupted(KeyboardInterrupt):
    """A campaign stopped by SIGINT/SIGTERM after flushing its state.

    Subclasses :class:`KeyboardInterrupt` so generic ``except
    Exception`` recovery code never swallows it, while the CLI can
    catch it specifically to print the resume hint.

    Attributes:
        path: The campaign file holding the persisted prefix.
        completed: Cells safely on disk at the moment of interruption.
    """

    def __init__(self, path: Path, completed: int) -> None:
        super().__init__(
            f"campaign interrupted: {completed} cells persisted in "
            f"{path}; re-run (or use --resume) to continue")
        self.path = path
        self.completed = completed


@dataclass(frozen=True)
class QuarantinedCell:
    """One cell the supervisor gave up on, with its failure history."""

    design: str
    workload: str
    attempts: tuple[str, ...]

    def render(self) -> str:
        """One ``[SKIP]`` report line (validation-report style)."""
        return (f"[SKIP] {self.design}::{self.workload}: "
                f"{self.attempts[-1]} ({len(self.attempts)} attempts)")


def _cell_key(design: "str | DesignSpec", workload: str) -> str:
    """Resume key of one cell.

    Plain registered names keep the legacy ``design::workload`` shape so
    campaign files written before design specs existed still resume.
    :class:`DesignSpec` cells add the spec's stable hash — two sweep
    points differing only in a parameter must never collapse into one
    resume key.
    """
    if isinstance(design, DesignSpec):
        return f"{design.name}@{design.spec_hash[:12]}::{workload}"
    return f"{design}::{workload}"


def _record_key(record: dict) -> str:
    """Reconstruct a persisted record's resume key on load."""
    spec = record.get("spec")
    if spec is not None:
        return _cell_key(DesignSpec.from_dict(spec), record["workload"])
    return _cell_key(record["design"], record["workload"])


def _comparison_record(comparison: WorkloadComparison,
                       harness: ExperimentHarness) -> dict:
    from .. import __version__
    record = comparison.to_record()
    record["config"] = {
        "requests": harness.config.requests,
        "warmup": harness.config.warmup,
        "seed": harness.config.seed,
        "scale": harness.config.scale.factor,
        "version": __version__,
    }
    return record


class Campaign:
    """A persisted, resumable result matrix.

    Args:
        harness: The shared experiment harness.
        path: JSONL file holding the accumulated records (legacy JSON
            array files are read and migrated transparently; torn or
            corrupt lines are dropped and the file compacted — see
            :attr:`recovered_lines`).
        record_timing: Attach the per-cell ``timing`` observability
            block (default).  Disable for byte-deterministic files —
            an interrupted-and-resumed campaign then produces exactly
            the bytes of an uninterrupted one.
        store: Optional :class:`~repro.observatory.RunStore` that every
            persisted record is additionally ingested into on the fly
            (idempotent — a later ``repro db ingest`` of the campaign
            file adds nothing new).
        store_source: Source label for on-the-fly ingest (``campaign``
            or ``sweep``).

    Attributes:
        quarantined: Cells a supervised run gave up on (skip-and-report;
            they stay absent from the matrix and are retried by a
            later resume).
        recovered_lines: Damaged JSONL lines dropped while loading.
    """

    def __init__(self, harness: ExperimentHarness,
                 path: str | Path, record_timing: bool = True,
                 store=None, store_source: str = "campaign") -> None:
        self.harness = harness
        self.path = Path(path)
        self.record_timing = record_timing
        self.store = store
        self.store_source = store_source
        self.quarantined: list[QuarantinedCell] = []
        self.recovered_lines = 0
        self._records: dict[str, dict] = {}
        self._needs_migration = False
        self._writer = CheckpointWriter(self.path)
        if self.path.exists():
            if self.path.read_text().lstrip().startswith("["):
                self._needs_migration = True
                records, self.recovered_lines = read_jsonl(self.path)
            else:
                records, self.recovered_lines = recover_jsonl(self.path)
            for record in records:
                self._records[_record_key(record)] = record

    @property
    def completed_cells(self) -> int:
        return len(self._records)

    @property
    def deferred_appends(self) -> int:
        """Records still awaiting a successful checkpoint write."""
        return len(self._writer.pending)

    def has(self, design: "str | DesignSpec", workload: str) -> bool:
        return _cell_key(design, workload) in self._records

    def persist_comparison(self, design: "str | DesignSpec",
                           workload: str,
                           comparison: WorkloadComparison,
                           timing: dict | None = None) -> bool:
        """Persist one completed cell (append + optional store ingest).

        The merge-on-arrival primitive shared by :meth:`run` and the
        fabric coordinator: builds the record (attaching the spec dump
        for :class:`~repro.designs.DesignSpec` cells and the ``timing``
        block when enabled), appends it through the checkpoint writer,
        and mirrors it into the attached RunStore.

        Args:
            design: The cell's design (name or spec).
            workload: The cell's workload.
            comparison: The computed result.
            timing: Timing block measured where the cell actually ran
                (a fabric worker); when None and ``record_timing`` is
                set, the harness's own counters are consulted instead.

        Returns:
            True when the record was new and persisted; False when the
            cell was already present (duplicate completion — the file
            is left untouched, which is what keeps duplicates
            idempotent).
        """
        key = _cell_key(design, workload)
        if key in self._records:
            return False
        record = _comparison_record(comparison, self.harness)
        if isinstance(design, DesignSpec):
            record["spec"] = design.to_dict()
        if self.record_timing:
            record["timing"] = (timing if timing is not None
                                else self.harness.cell_timing(design,
                                                              workload))
        self._records[key] = record
        self._append(record, tag=key)
        if self.store is not None:
            self.store.add_record(record, source=self.store_source,
                                  source_path=str(self.path))
        return True

    def run(self, designs: "Sequence[str | DesignSpec]",
            workloads: Sequence[str],
            jobs: int | None = 1, supervise=None) -> int:
        """Fill every missing cell; returns the number of new runs.

        ``designs`` mixes registered names and
        :class:`~repro.designs.DesignSpec` sweep points freely; spec
        cells persist their full spec dump alongside the result so a
        resumed campaign reconstructs their keys from disk.

        A thin wrapper over the execution plane
        (:func:`repro.exec.fill_cells`): ``jobs`` > 1 computes missing
        cells on a process pool (bit-identical to serial), ``supervise``
        (a :class:`~repro.resilience.supervisor.Supervision`) engages
        timeouts/retries/quarantine, every cell is appended (fsync'd)
        in deterministic cell order so a kill at any instant leaves a
        resumable clean prefix, and SIGTERM/SIGINT raise
        :class:`CampaignInterrupted` after flushing.
        """
        from ..exec.backends import fill_cells
        from ..exec.plan import enumerate_cells
        return fill_cells(self, enumerate_cells(designs, workloads),
                          jobs=jobs, supervise=supervise)

    def flush_pending(self):
        """Retry any appends the checkpoint writer had to defer;
        returns the writer's flush result (records landed)."""
        return self._writer.flush_pending()

    def record(self, design: "str | DesignSpec",
               workload: str) -> "dict | None":
        """The persisted record of one completed cell, or None.

        The read path of the execution plane: the explorer (and any
        other plan consumer) sees exactly what was written to disk —
        identical whichever backend computed the cell.
        """
        return self._records.get(_cell_key(design, workload))

    def render_quarantine(self) -> str:
        """``[SKIP]`` report lines for every quarantined cell."""
        return "\n".join(cell.render() for cell in self.quarantined)

    def _append(self, record: dict, tag: str = "") -> None:
        """Append one record line (migrating a legacy file first)."""
        if self._needs_migration:
            self._needs_migration = False
            existing = [r for r in self._records.values()
                        if r is not record]
            self._writer.rewrite(existing)
        self._writer.append(record, tag=tag)

    # ---- views ----------------------------------------------------------

    def timing_summary(self) -> dict[str, float]:
        """Aggregate observability over every record carrying timing.

        Returns totals of the per-cell ``timing`` blocks: cells counted,
        generation vs simulation wall time, trace-cache counter deltas
        (hits / misses / generated / bytes), and replay-engine counts
        (``engine_vector`` / ``engine_scalar`` cells plus their
        ``vector_epochs`` / ``scalar_epochs`` / ``policy_requests`` —
        numeric so they sum here without special-casing).  Records
        persisted by older versions (no timing block) are skipped.
        """
        totals: dict[str, float] = {"cells": 0, "gen_s": 0.0, "sim_s": 0.0}
        for record in self._records.values():
            timing = record.get("timing")
            if not timing:
                continue
            totals["cells"] += 1
            for name, value in timing.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    @staticmethod
    def _metric_value(record: dict, metric: str) -> float | None:
        """The record's scalar value for ``metric``, or None.

        Identity strings, nested blocks (config/timing/spec), and
        booleans are not metrics.
        """
        value = record.get(metric)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return float(value)

    def available_metrics(self) -> list[str]:
        """Sorted names of every scalar metric any record carries."""
        names = {name for record in self._records.values()
                 for name in record
                 if self._metric_value(record, name) is not None}
        return sorted(names)

    def missing_metric_cells(self, metric: str = "norm_ipc") -> int:
        """Completed cells whose record lacks ``metric`` (mixed-era
        files, or a typo'd ``--metric``)."""
        return sum(1 for record in self._records.values()
                   if self._metric_value(record, metric) is None)

    def matrix(self, metric: str = "norm_ipc") -> dict[str, dict[str,
                                                                 float]]:
        """design -> workload -> metric value for completed cells.

        Cells whose record lacks ``metric`` (or holds a non-scalar
        there) are skipped rather than raising — a mixed-era campaign
        file renders the cells it can and reports the rest (see
        :meth:`missing_metric_cells` and :meth:`available_metrics`).
        """
        out: dict[str, dict[str, float]] = {}
        for record in self._records.values():
            value = self._metric_value(record, metric)
            if value is None:
                continue
            out.setdefault(record["design"], {})[record["workload"]] = \
                value
        return out

    def render(self, metric: str = "norm_ipc") -> str:
        """Text table of the matrix (designs x workloads).

        Cells missing the metric are skipped and reported in a
        trailing note; when *no* record carries the metric, the table
        is replaced by the list of metrics that are available.
        """
        matrix = self.matrix(metric)
        if not matrix:
            if not self._records:
                return "(campaign empty)"
            return (f"(no record carries metric {metric!r}; available: "
                    f"{', '.join(self.available_metrics())})")
        missing = self.missing_metric_cells(metric)
        workloads = sorted({w for row in matrix.values() for w in row})
        width = max(12, *(len(design) for design in matrix))
        lines = [f"{'design':>{width}} " + " ".join(f"{w[:7]:>7}"
                                                    for w in workloads)]
        for design in sorted(matrix):
            cells = []
            for workload in workloads:
                value = matrix[design].get(workload)
                cells.append(f"{value:7.2f}" if value is not None
                             else f"{'-':>7}")
            lines.append(f"{design:>{width}} " + " ".join(cells))
        if missing:
            lines.append(f"({missing} cell(s) skipped: record lacks "
                         f"metric {metric!r})")
        return "\n".join(lines)


def run_campaign(harness: ExperimentHarness, path: str | Path,
                 designs: "Sequence[str | DesignSpec]",
                 workloads: Sequence[str],
                 jobs: int | None = 1,
                 supervise=None,
                 record_timing: bool = True) -> Campaign:
    """Convenience wrapper: open (or resume) and fill a campaign."""
    campaign = Campaign(harness, path, record_timing=record_timing)
    campaign.run(designs, workloads, jobs=jobs, supervise=supervise)
    return campaign
