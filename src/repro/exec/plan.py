"""Cell plans: the single description of *what* a campaign runs.

A :class:`CellPlan` names the ordered ``design x workload`` cell matrix
of one study plus everything needed to execute and persist it — the
frozen :class:`~repro.analysis.experiments.ExperimentConfig` window,
the campaign file, the result-cache root, the run-store database, and
the resume flag.  Every executor (the CLI commands, the explorer, the
fabric coordinator) opens its campaign through a plan, so the
clean-prefix / fsync'd / resume-keyed record contract is a property of
the plan's campaign, not of whichever caller happened to build it.

Cell order is deterministic and design-major (every workload of the
first design, then the second, ...) — the order the campaign file is
written in regardless of which backend, worker, or process computed
each cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence


class PlanError(ValueError):
    """A plan that cannot be opened or executed as specified.

    The CLI maps this to exit code 2 (usage error) — a missing
    ``--resume`` file, an unknown objective, a backend that cannot run
    the requested shape.
    """


def enumerate_cells(designs: Sequence, workloads: Sequence
                    ) -> "list[tuple]":
    """The deterministic design-major cell order every executor uses.

    Shared by campaign fills, the sanitizer's case enumeration, and the
    differential harness so "the n-th cell" means the same coordinate
    everywhere.
    """
    return [(design, workload)
            for design in designs for workload in workloads]


@dataclass(frozen=True)
class CellPlan:
    """One study: ordered cells + execution and persistence settings.

    Args:
        config: The frozen experiment window (requests/warmup/seed/
            workloads/trace cache/engine) shared by every cell.
        designs: Registered design names and/or
            :class:`~repro.designs.DesignSpec` sweep points, in matrix
            order.
        workloads: Workload axis; defaults to ``config.workloads``.
        out: Campaign JSONL path (clean-prefix, fsync'd, resume-keyed).
        record_timing: Attach per-cell ``timing`` blocks; disable for
            byte-deterministic files (the backend-equivalence contract).
        cache_dir: Persistent result-cache root; ``""`` selects the
            default directory, None disables the cache entirely
            (mirrors the CLI's ``--cache`` optional-value flag).
        db: Optional :class:`~repro.observatory.RunStore` sqlite path;
            records are mirrored into it on the fly.
        source: Run-store source tag (``campaign`` / ``sweep`` /
            ``explore``).
        resume: Require ``out`` to already exist (the CLI's
            ``--resume`` contract: a typo'd path must not silently
            start an empty campaign).
    """

    config: object
    designs: tuple = ()
    workloads: tuple = ()
    out: "Path | None" = None
    record_timing: bool = True
    cache_dir: "str | None" = None
    db: "str | None" = None
    source: str = "campaign"
    resume: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", tuple(self.designs))
        workloads = tuple(self.workloads) or tuple(self.config.workloads)
        object.__setattr__(self, "workloads", workloads)
        if self.out is not None:
            object.__setattr__(self, "out", Path(self.out))

    def cells(self) -> "list[tuple]":
        """The plan's full cell list in deterministic matrix order."""
        return enumerate_cells(self.designs, self.workloads)

    @property
    def cell_count(self) -> int:
        return len(self.designs) * len(self.workloads)

    def build_harness(self):
        """A fresh harness honouring the plan's cache settings."""
        from ..analysis.experiments import ExperimentHarness
        cache = None
        if self.cache_dir is not None:
            from ..analysis.resultcache import ResultCache
            cache = ResultCache(self.cache_dir or None)
        return ExperimentHarness(self.config, cache=cache)

    def open_store(self):
        """The plan's RunStore, or None when ``db`` is unset."""
        if not self.db:
            return None
        from ..observatory import RunStore
        return RunStore(self.db)

    def open_campaign(self, harness=None):
        """Open (or resume) the plan's campaign.

        Raises:
            PlanError: no ``out`` path, or ``resume`` was requested but
                the file does not exist.
            ValueError: the file is not JSON Lines or holds another
                window's records; it is left untouched.
        """
        from ..analysis.campaign import Campaign
        if self.out is None:
            raise PlanError("plan has no campaign file (out is None)")
        if self.resume and not self.out.exists():
            raise PlanError(f"--resume: no campaign file at {self.out}")
        if harness is None:
            harness = self.build_harness()
        return Campaign(harness, self.out,
                        record_timing=self.record_timing,
                        store=self.open_store(),
                        store_source=self.source, one_window=True)


def comparison_of(campaign, design, workload):
    """Reconstruct a cell's WorkloadComparison from its stored record.

    Returns None when the cell has not been persisted yet.  The
    explorer reads results this way so it sees exactly what any backend
    wrote — local pool or remote fleet alike.
    """
    from ..analysis.metrics import WorkloadComparison
    record = campaign.record(design, workload)
    if record is None:
        return None
    payload = {key: value for key, value in record.items()
               if key not in ("config", "timing", "spec")}
    return WorkloadComparison(**payload)
