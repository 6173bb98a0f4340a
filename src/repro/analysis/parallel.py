"""Process-parallel execution of (design x workload) experiment cells.

Every cell of the evaluation is an independent, deterministic function of
the :class:`~repro.analysis.experiments.ExperimentConfig` and the cell
coordinates: the trace is regenerated from the shared seed, the
controller is built fresh per run, and nothing about one cell's result
depends on which process computed it or in which order.  That makes the
fan-out embarrassingly parallel *and* bit-identical to a serial run —
the property the tests in ``tests/test_parallel.py`` pin down.

Each worker process lazily builds one :class:`ExperimentHarness` per
distinct (config, cache root) and keeps it for the life of the pool, so
the expensive shared state (packed traces, no-HBM baseline runs) is
paid once per worker rather than once per cell.  Cells are handed out
workload-major so a worker's consecutive cells tend to share a trace
and baseline.  When the parent harness has a persistent
:class:`~repro.analysis.resultcache.ResultCache`, its root travels with
each task and the workers share it — cold workers load the stored
no-HBM baseline records instead of re-simulating them; likewise a
``trace_cache_dir`` on the config means every worker loads each packed
stream from the shared on-disk trace cache instead of re-synthesising
it.

Workers return plain ``WorkloadComparison.to_record`` dumps (cheap to
pickle) plus the cell's timing record; the parent harness re-adopts them
through :meth:`ExperimentHarness.absorb_comparison` /
:meth:`ExperimentHarness.adopt_timing`, which also feed the persistent
result cache when one is configured.

``on_result`` consumers (the campaign's checkpoint) are fed
*incrementally and in deterministic cell order*: as soon as every cell
up to position *n* of the unique-cell list has resolved, those cells
are emitted — regardless of which worker finished first — so an
interrupted run has persisted a clean, order-stable prefix of the
uninterrupted run.

Passing ``supervise=``\\ :class:`~repro.resilience.supervisor.Supervision`
routes the missing cells through the supervised pool instead of a bare
``ProcessPoolExecutor``: per-cell wall-clock timeouts, bounded retries
with deterministic backoff, dead-worker respawn, and quarantine of
persistently failing cells (reported through ``on_quarantine``, never
an exception — one poisoned cell cannot abort a campaign).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

from ..core.config import BumblebeeConfig
from ..designs import DesignSpec
from .experiments import ExperimentConfig, ExperimentHarness, fitted_devices
from .metrics import WorkloadComparison

#: One (design name or spec, workload name) coordinate of the result
#: matrix.  :class:`DesignSpec` cells are hashable and picklable, so
#: they ride the same dedup, process fan-out, and supervision paths as
#: plain registered names.
DesignCell = "tuple[str | DesignSpec, str]"

#: One custom-Bumblebee coordinate:
#: (config, workload, run name, page_bytes for device fitting or None).
BumblebeeCell = "tuple[BumblebeeConfig, str, str, int | None]"

# Per-process harness store: workers keep traces and baselines warm
# across the cells they are handed (keyed by the frozen config plus the
# persistent cache root, so one pool can serve several harnesses).
_WORKER_HARNESSES: dict[tuple, ExperimentHarness] = {}


def _worker_harness(config: ExperimentConfig,
                    cache_root: "str | None") -> ExperimentHarness:
    harness = _WORKER_HARNESSES.get((config, cache_root))
    if harness is None:
        from .resultcache import ResultCache
        cache = ResultCache(cache_root) if cache_root is not None else None
        harness = _WORKER_HARNESSES[(config, cache_root)] = \
            ExperimentHarness(config, cache=cache)
    return harness


def _cache_root(harness: ExperimentHarness) -> "str | None":
    """The parent's persistent-cache root, as shipped to workers."""
    return str(harness.cache.root) if harness.cache is not None else None


def design_token(design: "str | DesignSpec") -> str:
    """A stable, collision-free string token for one design cell.

    Plain registered names map to themselves; parameterised specs add
    their stable hash so two same-named (or same-based) sweep points
    can never share a supervision key or sort position.
    """
    if isinstance(design, DesignSpec):
        return f"{design.name}@{design.spec_hash[:12]}"
    return str(design)


def _design_cell(task: tuple) -> tuple:
    """Worker: simulate one named-design cell, return (record, timing)."""
    config, cache_root, design, workload = task
    harness = _worker_harness(config, cache_root)
    record = harness.run_design(design, workload).to_record()
    return record, harness.cell_timing(design, workload)


def _bumblebee_cell(task: tuple) -> tuple:
    """Worker: simulate one custom-Bumblebee cell, return
    (record, timing)."""
    config, cache_root, bconfig, workload, name, page_bytes = task
    harness = _worker_harness(config, cache_root)
    if page_bytes is None:
        comparison = harness.run_bumblebee(bconfig, workload, name=name)
    else:
        hbm, dram = fitted_devices(config.scale, page_bytes=page_bytes)
        comparison = harness.run_bumblebee(bconfig, workload, name=name,
                                           hbm_config=hbm,
                                           dram_config=dram)
    return comparison.to_record(), harness.cell_timing(name, workload)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value to a worker count.

    None or 0 mean "all available cores"; negatives are rejected.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _chunked_map(worker: Callable, tasks: list, jobs: int) -> list:
    """Map ``worker`` over ``tasks`` across ``jobs`` processes, in order."""
    workers = min(jobs, len(tasks))
    chunksize = -(-len(tasks) // workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=chunksize))


def run_design_cells(
        harness: ExperimentHarness,
        cells: Sequence[tuple],
        jobs: int | None = 1,
        on_result: "Callable[[str, str, WorkloadComparison], None] | None"
        = None,
        supervise=None,
        on_quarantine: "Callable[[str, str, object], None] | None" = None,
) -> "list[WorkloadComparison]":
    """Fill (design, workload) cells, optionally across processes.

    Already-known cells (harness memory or persistent cache) are reused;
    the rest run serially (``jobs`` <= 1), on a process pool, or — with
    ``supervise`` — on the supervised pool.  Results are bit-identical
    whichever way they were computed.

    Args:
        harness: The parent harness that adopts every result.
        cells: (design, workload) pairs; duplicates are collapsed.
        jobs: Worker processes (0/None = all cores, 1 = in-process).
        on_result: Invoked once per resolved unique cell, in cell
            order, with (design, workload, comparison).  Emission is
            incremental: a cell is emitted as soon as it and every cell
            before it have resolved — the campaign uses this for
            crash-safe prefix persistence.
        supervise: A :class:`~repro.resilience.supervisor.Supervision`
            policy; when given, missing cells run under supervision
            (timeouts, retries, quarantine) even at ``jobs=1``.
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
    known: dict[tuple, WorkloadComparison] = {}
    skipped: set[tuple] = set()
    emitted = 0

    def flush() -> None:
        """Emit the longest fully-resolved prefix of ``unique``."""
        nonlocal emitted
        while emitted < len(unique):
            cell = unique[emitted]
            if cell in skipped:
                emitted += 1
                continue
            comparison = known.get(cell)
            if comparison is None:
                break
            if on_result is not None:
                on_result(cell[0], cell[1], comparison)
            emitted += 1

    todo = []
    for cell in unique:
        cached = harness.cached_comparison(*cell)
        if cached is not None:
            known[cell] = cached
        else:
            todo.append(cell)
    if todo:
        if supervise is not None:
            _run_supervised_cells(harness, todo, jobs, supervise, known,
                                  skipped, flush, on_quarantine)
        elif jobs <= 1 or len(todo) == 1:
            for design, workload in todo:
                known[(design, workload)] = harness.run_design(design,
                                                               workload)
                flush()
        else:
            # Workload-major order: consecutive cells of one chunk share
            # a trace and baseline inside their worker.
            ordered = sorted(
                todo, key=lambda cell: (cell[1], design_token(cell[0])))
            cache_root = _cache_root(harness)
            tasks = [(harness.config, cache_root, design, workload)
                     for design, workload in ordered]
            workers = min(jobs, len(tasks))
            chunksize = -(-len(tasks) // workers)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for (design, workload), (record, timing) in zip(
                        ordered,
                        pool.map(_design_cell, tasks,
                                 chunksize=chunksize)):
                    known[(design, workload)] = harness.absorb_comparison(
                        design, workload, record)
                    harness.adopt_timing(design, workload, timing)
                    flush()
    flush()
    return [known[cell] for cell in unique if cell in known]


def _run_supervised_cells(harness: ExperimentHarness, todo: list,
                          jobs: int, supervise, known: dict,
                          skipped: set, flush: Callable[[], None],
                          on_quarantine) -> None:
    """Fan ``todo`` cells over the supervised pool, adopting results
    (and quarantines) incrementally as they land."""
    # Imported lazily: repro.analysis must stay importable without
    # triggering the resilience package (and vice versa).
    from ..resilience.supervisor import run_supervised
    cache_root = _cache_root(harness)
    by_key = {f"{design_token(design)}::{workload}": (design, workload)
              for design, workload in todo}
    tasks = [(f"{design_token(design)}::{workload}",
              (harness.config, cache_root, design, workload))
             for design, workload in todo]

    def complete(key: str, outcome: tuple) -> None:
        design, workload = by_key[key]
        record, timing = outcome
        known[(design, workload)] = harness.absorb_comparison(
            design, workload, record)
        harness.adopt_timing(design, workload, timing)
        flush()

    def quarantine(key: str, failure) -> None:
        cell = by_key[key]
        skipped.add(cell)
        flush()
        if on_quarantine is not None:
            on_quarantine(cell[0], cell[1], failure)

    run_supervised(_design_cell, tasks, jobs=jobs, policy=supervise,
                   on_complete=complete, on_quarantine=quarantine)


def run_bumblebee_cells(
        harness: ExperimentHarness,
        cells: Sequence[tuple],
        jobs: int | None = 1,
) -> "list[WorkloadComparison]":
    """Run custom-Bumblebee cells, optionally across processes.

    Args:
        harness: The parent harness (its config seeds the workers).
        cells: (BumblebeeConfig, workload, name, page_bytes) tuples;
            ``page_bytes`` refits the devices for that page size, None
            keeps the harness devices.
        jobs: Worker processes (0/None = all cores, 1 = in-process).

    Returns:
        One comparison per cell, in input order (duplicates collapsed
        internally but returned per input position).
    """
    unique = list(dict.fromkeys(tuple(cell) for cell in cells))
    jobs = resolve_jobs(jobs)
    known: dict[tuple, WorkloadComparison] = {}

    def devices_for(page_bytes: "int | None"):
        if page_bytes is None:
            return harness.hbm_config, harness.dram_config
        return fitted_devices(harness.config.scale, page_bytes=page_bytes)

    def cache_key(cell: tuple) -> str:
        bconfig, workload, name, page_bytes = cell
        hbm, dram = devices_for(page_bytes)
        return harness._bumblebee_key(bconfig, workload, name, hbm, dram)

    todo = []
    for cell in unique:
        record = (harness.cache.get(cache_key(cell))
                  if harness.cache is not None else None)
        if record is not None:
            known[cell] = WorkloadComparison(**record)
        else:
            todo.append(cell)
    if todo:
        if jobs <= 1 or len(todo) == 1:
            for cell in todo:
                bconfig, workload, name, page_bytes = cell
                hbm, dram = devices_for(page_bytes)
                known[cell] = harness.run_bumblebee(
                    bconfig, workload, name=name,
                    hbm_config=hbm, dram_config=dram)
        else:
            ordered = sorted(
                todo, key=lambda cell: (cell[1], cell[2], cell[3] or 0))
            cache_root = _cache_root(harness)
            tasks = [(harness.config, cache_root, bconfig, workload, name,
                      page_bytes)
                     for bconfig, workload, name, page_bytes in ordered]
            outcomes = _chunked_map(_bumblebee_cell, tasks, jobs)
            for cell, (record, timing) in zip(ordered, outcomes):
                known[cell] = WorkloadComparison(**record)
                harness.adopt_timing(cell[2], cell[1], timing)
                if harness.cache is not None:
                    harness.cache_put(cache_key(cell), record)
    return [known[tuple(cell)] for cell in cells]
