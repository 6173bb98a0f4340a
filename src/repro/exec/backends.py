"""Execution backends: the single *how* behind every campaign fill.

Every way this project computes ``design x workload`` cells — the
serial loop, the process pool, the supervised pool, and the distributed
fabric — is an :class:`ExecutionBackend` filling a campaign opened from
a :class:`~repro.exec.plan.CellPlan`.  All of them emit through
:meth:`~repro.analysis.campaign.Campaign.persist_comparisons` in
deterministic cell order, each resolved prefix of cells as one fsync'd
write and one RunStore transaction, so the clean-prefix / fsync'd /
resume-keyed record stream (and the ``--no-timing`` byte-identity
contract) is a property of the plane: the same plan produces the same
file bytes on any backend, pinned by ``tests/test_exec.py``.

Backends:

==================  ===================================================
:class:`SerialBackend`     in-process loop (``--jobs 1``, no
                           supervision)
:class:`PoolBackend`       process pool and/or supervised pool
                           (``--jobs N`` / ``--supervise`` /
                           ``--timeout`` / ``--retries``)
:class:`FabricBackend`     join an existing fleet as a worker and
                           mirror the coordinator's file
                           (``--fabric URL``)
:class:`FleetServeBackend` host a coordinator and lease cells to
                           external workers: a whole plan
                           (``fabric serve``) or the explorer's
                           adaptive batches
                           (``explore --fabric-serve PORT``)
==================  ===================================================

Interrupt behaviour is uniform: SIGTERM/SIGINT flushes the completed
prefix and raises
:class:`~repro.analysis.campaign.CampaignInterrupted` with the resume
hint, whichever backend was running.

Underneath all local backends sits :func:`run_cells`.  Every cell is an
independent, deterministic function of the
:class:`~repro.analysis.experiments.ExperimentConfig` and its
``(design, workload)`` coordinate, so fanning cells over processes is
bit-identical to a serial run.  Each worker process keeps one
:class:`~repro.analysis.experiments.ExperimentHarness` per distinct
(config, result-cache root) for the life of the pool, so packed traces
and no-HBM baselines are paid once per worker, not once per cell; a
parent's persistent result cache and trace cache are shared with the
workers.  Workers return ``WorkloadComparison.to_record`` dumps plus the
cell's timing record, which the parent re-adopts through
:meth:`~repro.analysis.experiments.ExperimentHarness.absorb_comparison`
and :meth:`~repro.analysis.experiments.ExperimentHarness.adopt_timing`.
"""

from __future__ import annotations

import json
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from .plan import PlanError

# Per-process harness store: workers keep traces and baselines warm
# across the cells they are handed (keyed by the frozen config plus the
# persistent cache root, so one pool can serve several harnesses).
_WORKER_HARNESSES: dict[tuple, object] = {}


def _worker_harness(config, cache_root: "str | None"):
    harness = _WORKER_HARNESSES.get((config, cache_root))
    if harness is None:
        from ..analysis.experiments import ExperimentHarness
        from ..analysis.resultcache import ResultCache
        cache = ResultCache(cache_root) if cache_root is not None else None
        harness = _WORKER_HARNESSES[(config, cache_root)] = \
            ExperimentHarness(config, cache=cache)
    return harness


def _cache_root(harness) -> "str | None":
    """The parent's persistent-cache root, as shipped to workers."""
    return str(harness.cache.root) if harness.cache is not None else None


def design_token(design) -> str:
    """A stable, collision-free string token for one design cell.

    Plain registered names map to themselves; parameterised specs add
    their stable hash so two same-named (or same-based) sweep points
    can never share a supervision key or sort position.
    """
    from ..designs import DesignSpec
    if isinstance(design, DesignSpec):
        return f"{design.name}@{design.spec_hash[:12]}"
    return str(design)


def _design_cell(task: tuple) -> tuple:
    """Worker: simulate one design cell, return (record, timing)."""
    config, cache_root, design, workload = task
    harness = _worker_harness(config, cache_root)
    record = harness.run_design(design, workload).to_record()
    return record, harness.cell_timing(design, workload)


def resolve_jobs(jobs: "int | None") -> int:
    """Normalise a ``--jobs`` value to a worker count.

    None or 0 mean "all available cores"; negatives are rejected.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def run_cells(harness, cells: Sequence[tuple], jobs: "int | None" = 1,
              supervise=None, on_results=None, on_quarantine=None):
    """Fill ``(design, workload)`` cells on a harness, optionally across
    processes.

    The plane's campaign-less entry point (figure drivers, ablation
    sweeps) and the engine under :func:`fill_cells`.  Already-known
    cells (harness memory or persistent cache) are reused; the rest run
    serially (``jobs`` <= 1), on a process pool, or — with
    ``supervise`` — on the supervised pool.  Results are bit-identical
    whichever way they were computed.

    Args:
        harness: The parent harness that adopts every result.
        cells: (design, workload) pairs, design a registered name or a
            :class:`~repro.designs.DesignSpec`; duplicates collapse.
        jobs: Worker processes (0/None = all cores, 1 = in-process).
        supervise: A :class:`~repro.resilience.supervisor.Supervision`
            policy; when given, missing cells run under supervision
            (timeouts, retries, quarantine) even at ``jobs=1``.
        on_results: Invoked with each newly resolved prefix of the
            unique cells, as a list of (design, workload, comparison)
            in cell order.  Emission is incremental: a cell is emitted
            as soon as it and every cell before it have resolved, so an
            interrupted run has persisted a clean, order-stable prefix
            of the uninterrupted run.  Cells that resolve together (a
            warm run's cached cells) arrive in one call.
        on_quarantine: Invoked with (design, workload,
            :class:`~repro.resilience.supervisor.CellFailure`) for each
            cell the supervisor gave up on; such cells are skipped, not
            raised, and excluded from the returned list.

    Returns:
        One comparison per unique resolved cell, in first-appearance
        order (quarantined cells are absent).
    """
    unique = list(dict.fromkeys(tuple(cell) for cell in cells))
    jobs = resolve_jobs(jobs)
    known: dict = {}
    skipped: set = set()
    emitted = 0

    def flush() -> None:
        """Emit the longest fully-resolved prefix of ``unique``."""
        nonlocal emitted
        batch = []
        while emitted < len(unique):
            cell = unique[emitted]
            if cell not in skipped:
                comparison = known.get(cell)
                if comparison is None:
                    break
                batch.append((*cell, comparison))
            emitted += 1
        if batch and on_results is not None:
            on_results(batch)

    def adopt(design, workload, outcome: tuple) -> None:
        record, timing = outcome
        known[(design, workload)] = harness.absorb_comparison(
            design, workload, record)
        harness.adopt_timing(design, workload, timing)
        flush()

    todo = []
    for cell in unique:
        cached = harness.cached_comparison(*cell)
        if cached is not None:
            known[cell] = cached
        else:
            todo.append(cell)
    cache_root = _cache_root(harness)
    if supervise is not None and todo:
        # Imported lazily: repro.exec must stay importable without
        # triggering the resilience package (and vice versa).
        from ..resilience.supervisor import run_supervised
        by_key = {f"{design_token(design)}::{workload}": (design, workload)
                  for design, workload in todo}
        tasks = [(key, (harness.config, cache_root, *cell))
                 for key, cell in by_key.items()]

        def quarantine(key: str, failure) -> None:
            cell = by_key[key]
            skipped.add(cell)
            flush()
            if on_quarantine is not None:
                on_quarantine(cell[0], cell[1], failure)

        run_supervised(_design_cell, tasks, jobs=jobs, policy=supervise,
                       on_complete=lambda key, outcome: adopt(
                           *by_key[key], outcome),
                       on_quarantine=quarantine)
    elif jobs <= 1 or len(todo) <= 1:
        for design, workload in todo:
            known[(design, workload)] = harness.run_design(design, workload)
            flush()
    else:
        # Workload-major order: consecutive cells of one chunk share a
        # trace and baseline inside their worker.
        ordered = sorted(todo,
                         key=lambda cell: (cell[1], design_token(cell[0])))
        tasks = [(harness.config, cache_root, *cell) for cell in ordered]
        workers = min(jobs, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for cell, outcome in zip(ordered, pool.map(
                    _design_cell, tasks,
                    chunksize=-(-len(tasks) // workers))):
                adopt(*cell, outcome)
    flush()
    return [known[cell] for cell in unique if cell in known]


def fill_cells(campaign, cells: Sequence[tuple],
               jobs: "int | None" = 1, supervise=None) -> int:
    """Fill a campaign's missing cells; returns the number of new runs.

    The orchestration previously embedded in ``Campaign.run``: filter
    already-present cells, persist completions in deterministic cell
    order (each resolved prefix one fsync'd write, so the file is a
    clean prefix), quarantine supervised failures
    instead of aborting, and convert SIGTERM/SIGINT into
    :class:`~repro.analysis.campaign.CampaignInterrupted` after
    flushing.
    """
    from ..analysis.campaign import CampaignInterrupted, QuarantinedCell
    missing = [(design, workload) for design, workload in cells
               if not campaign.has(design, workload)]
    if not missing:
        return 0
    completed = 0

    def persist(batch) -> None:
        nonlocal completed
        completed += campaign.persist_comparisons(
            (design, workload, comparison, None)
            for design, workload, comparison in batch)

    def quarantine(design, workload, failure) -> None:
        campaign.quarantined.append(QuarantinedCell(
            getattr(design, "name", design), workload,
            tuple(failure.attempts)))

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:          # not the main thread
        previous = None
    try:
        run_cells(campaign.harness, missing, jobs=jobs,
                  on_results=persist, supervise=supervise,
                  on_quarantine=quarantine)
    except KeyboardInterrupt:
        campaign.flush_pending()
        raise CampaignInterrupted(campaign.path,
                                  campaign.completed_cells) from None
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        campaign.flush_pending()
    return completed


@dataclass
class ExecutionOutcome:
    """What one plan execution produced.

    Attributes:
        campaign: The campaign holding the results — usually the one
            passed in, but a backend that rebuilt it from mirrored
            bytes (fabric) returns the reloaded instance; callers must
            render from here.
        new_runs: Cells newly persisted by this execution.
        notes: Backend-specific summary lines the CLI prints before the
            standard campaign summary.
    """

    campaign: object
    new_runs: int = 0
    notes: tuple = ()


class ExecutionBackend:
    """Protocol every backend implements.

    ``execute`` runs a whole plan; ``run_cells`` runs one batch against
    an already-open campaign (the explorer's adaptive path — it decides
    the next batch from the results of the last).  Both leave the
    campaign file a clean prefix at every instant.
    """

    name = "abstract"

    def execute(self, plan, campaign) -> ExecutionOutcome:
        return ExecutionOutcome(
            campaign=campaign,
            new_runs=self.run_cells(campaign, plan.cells()))

    def run_cells(self, campaign, cells: Sequence[tuple]) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent)."""


class SerialBackend(ExecutionBackend):
    """In-process, one cell at a time."""

    name = "serial"

    def run_cells(self, campaign, cells: Sequence[tuple]) -> int:
        return fill_cells(campaign, cells, jobs=1)


class PoolBackend(ExecutionBackend):
    """Process pool, optionally supervised (timeouts/retries/quarantine).

    Args:
        jobs: Worker processes (0/None = all cores).
        supervise: Optional
            :class:`~repro.resilience.supervisor.Supervision`; engages
            the supervised pool even at ``jobs=1``.
    """

    name = "pool"

    def __init__(self, jobs: "int | None" = 1, supervise=None) -> None:
        self.jobs = jobs
        self.supervise = supervise

    def run_cells(self, campaign, cells: Sequence[tuple]) -> int:
        return fill_cells(campaign, cells, jobs=self.jobs,
                          supervise=self.supervise)


class FabricBackend(ExecutionBackend):
    """Join an existing fleet at ``url`` and mirror its campaign file.

    The whole-plan path behind ``--fabric URL``: work leased cells as
    one more fleet worker, then pull the coordinator's campaign bytes
    over ``GET /file`` and reload them as the outcome campaign — so the
    post-run summary (timing, engines, quarantine render) is computed
    from exactly the records a local run would have produced, and the
    reload lands the mirrored records in the plan's run store.

    ``run_cells`` (adaptive batches) is refused: a client worker cannot
    inject cells into a remote coordinator's fixed lease table.  Host
    the fleet instead (:class:`FleetServeBackend`).
    """

    name = "fabric"

    def __init__(self, url: str,
                 progress: "Callable[[str], None] | None" = None) -> None:
        self.url = url
        self.progress = progress

    def run_cells(self, campaign, cells: Sequence[tuple]) -> int:
        raise PlanError(
            "--fabric joins an existing fleet and cannot drive adaptive "
            "cell batches; host the fleet with --fabric-serve instead")

    def execute(self, plan, campaign) -> ExecutionOutcome:
        from ..analysis.campaign import Campaign, QuarantinedCell
        from ..fabric import FabricClient, run_worker
        before = campaign.completed_cells
        completed = run_worker(self.url, progress=self.progress)
        worker_id = f"campaign-cli-{os.getpid()}"
        with FabricClient(self.url, worker_id) as client:
            status, data = client.request("GET", "/file")
            state = client.call("GET", "/status")
        if status != 200 or state is None:
            raise RuntimeError(
                f"--fabric: coordinator at {self.url} would not serve "
                f"its campaign file (HTTP {status})")
        plan.out.write_bytes(data)
        mirrored = Campaign(campaign.harness, plan.out,
                            record_timing=plan.record_timing,
                            store=plan.open_store(),
                            store_source=plan.source)
        for cell in state.get("quarantined") or []:
            mirrored.quarantined.append(QuarantinedCell(
                cell["design"], cell["workload"],
                tuple(cell["attempts"])))
        note = (f"fabric: fleet at {self.url}; this worker completed "
                f"{completed} cell(s); mirrored "
                f"{state['emitted']}/{state['cells']} cells -> "
                f"{plan.out}")
        return ExecutionOutcome(
            campaign=mirrored,
            new_runs=max(0, mirrored.completed_cells - before),
            notes=(note,))


class FleetServeBackend(ExecutionBackend):
    """Host a coordinator and lease cells to external workers.

    The coordinator starts held with an empty lease table
    (:meth:`serve`).  Cells are appended to it
    (:meth:`~repro.fabric.coordinator.FabricCoordinator.extend`) and
    workers attached with ``repro fabric work URL`` drain them as they
    appear; releasing the hold lets the fleet wind down with the normal
    done/linger handshake.

    * Whole plan (``repro fabric serve``): :meth:`execute` appends the
      plan's cells, releases the hold and serves until every cell
      resolves and ``linger_s`` passes, or until Ctrl-C when
      ``linger_s`` is None.  Ctrl-C is a normal end there: the clean
      prefix is already on disk.  The coordinator's ``fabric:
      cells=...`` summary and any injected fault counters come back as
      the outcome's notes.
    * Adaptive (``explore --fabric-serve PORT``): each ``run_cells``
      batch is appended; ``close`` releases the hold.

    Args:
        host / port: Listen address (port 0 = ephemeral).
        policy: The fleet's lease/retry/quarantine
            :class:`~repro.resilience.supervisor.Supervision` (default
            :data:`~repro.resilience.supervisor.FLEET_POLICY`, the
            ``repro fabric serve`` defaults).
        linger_s: How long to keep answering stragglers once every cell
            has resolved; None serves until interrupted or closed.
        progress: Line sink for the serving announcement.

    Attributes:
        coordinator: The hosted
            :class:`~repro.fabric.coordinator.FabricCoordinator` while
            serving, else None.
    """

    name = "fleet"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 policy: "Supervision | None" = None,
                 linger_s: "float | None" = 2.0,
                 progress: "Callable[[str], None] | None" = None) -> None:
        self.host = host
        self.port = port
        self.policy = policy
        self.linger_s = linger_s
        self.progress = progress
        self.coordinator = None
        self._thread = None

    def serve(self, campaign) -> str:
        """Start (or return) the held coordinator; returns its URL.
        Raises :class:`PlanError` naming the address and the cause when
        it cannot be bound (a busy port)."""
        if self._thread is not None:
            return self.coordinator.url
        from ..fabric import FabricCoordinator
        from ..fabric.coordinator import CoordinatorThread
        harness = campaign.harness
        self.coordinator = FabricCoordinator(
            campaign, (), (), policy=self.policy,
            result_backend=getattr(harness.cache, "store", None),
            trace_backend=getattr(harness.trace_cache, "store", None),
            hold=True)
        thread = CoordinatorThread(
            self.coordinator, host=self.host, port=self.port,
            once=self.linger_s is not None,
            linger_s=self.linger_s or 0.0)
        try:
            url = thread.start()
        except OSError as exc:
            self.coordinator = None
            cause = os.strerror(exc.errno) if exc.errno else str(exc)
            raise PlanError(f"fabric: cannot listen on {self.host}:"
                            f"{self.port}: {cause}") from None
        self._thread = thread
        return url

    def _announce(self) -> None:
        if self.progress is not None:
            self.progress(f"fabric: serving "
                          f"{len(self.coordinator.pending_cells)} cell(s) "
                          f"at {self.coordinator.url}")

    def execute(self, plan, campaign) -> ExecutionOutcome:
        from ..resilience import faults
        before = campaign.completed_cells
        self.serve(campaign)
        coordinator, thread = self.coordinator, self._thread
        coordinator.extend(plan.cells())
        coordinator.release()
        self._announce()
        notes = []
        try:
            thread.wait(timeout_s=None)
        except KeyboardInterrupt:
            notes.append("fabric: interrupted; clean prefix persisted, "
                         "restart with --resume to continue")
        thread.stop()
        self._thread = self.coordinator = None
        notes.append(coordinator.summary())
        injector = faults.active()
        if injector is not None and any(injector.counters.values()):
            notes.append("fabric: faults " + json.dumps(injector.counters))
        return ExecutionOutcome(
            campaign=campaign,
            new_runs=campaign.completed_cells - before, notes=tuple(notes))

    def run_cells(self, campaign, cells: Sequence[tuple]) -> int:
        from ..analysis.campaign import CampaignInterrupted
        fresh = self._thread is None
        self.serve(campaign)
        unique = list(dict.fromkeys(tuple(cell) for cell in cells))
        before = campaign.completed_cells
        self.coordinator.extend(unique)
        if fresh:
            self._announce()
        try:
            while any(not campaign.has(design, workload)
                      and self.coordinator.cell_status(design, workload)
                      != "quarantined"
                      for design, workload in unique):
                time.sleep(0.05)
        except KeyboardInterrupt:
            campaign.flush_pending()
            raise CampaignInterrupted(
                campaign.path, campaign.completed_cells) from None
        return campaign.completed_cells - before

    def close(self) -> None:
        if self._thread is None:
            return
        self.coordinator.release()
        if (self.linger_s is None
                or not self._thread.wait(timeout_s=self.linger_s + 30.0)):
            self._thread.stop()
        self._thread = None
        self.coordinator = None
