"""Command-line interface for the Bumblebee reproduction.

Usage (also via ``python -m repro``)::

    repro run --design Bumblebee --workload mcf
    repro compare --workloads mcf wrf --designs Bumblebee Chameleon
    repro figure --id 8a
    repro characterise --workload wrf
    repro mix --preset mix-fig1 --design Bumblebee
    repro metadata
    repro sanitize --designs all --seeds 3
    repro designs list
    repro designs show Bumblebee
    repro sweep --grid chbm_ratio=0,0.25,0.5,0.75,1.0 \\
                --grid allocation=dram,hbm,adaptive --jobs 4
    repro explore --grid chbm_ratio=0,0.25,0.5,0.75,1.0 \\
                  --grid allocation=dram,hbm,adaptive --budget 40
    repro fabric serve --out fleet.jsonl --once
    repro fabric work http://127.0.0.1:8734

Every subcommand prints paper-style text tables; numeric knobs mirror
:class:`~repro.analysis.experiments.ExperimentConfig`.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Sequence

from .analysis import (
    ExperimentConfig,
    ExperimentHarness,
    format_figure1,
    format_metadata,
    format_table2,
)
from .analysis.artefacts import ARTEFACTS, VALIDATION
from .baselines import FIGURE8_DESIGNS
from .designs import parse_grid, registry
from .sim import SimulationDriver
from .traces import MIX_PRESETS, SPEC2017, build_mix, mix_trace


def _add_window_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--requests", type=int, default=60_000,
                        help="measured LLC misses per run")
    parser.add_argument("--warmup", type=int, default=30_000,
                        help="warm-up misses before measurement")
    parser.add_argument("--seed", type=int, default=1234,
                        help="trace generator seed")
    parser.add_argument("--engine", choices=("auto", "scalar", "vector"),
                        default="auto",
                        help="replay engine: 'auto' and 'vector' take "
                             "the vectorized epoch engine (scalar "
                             "fallback where unsupported), 'scalar' "
                             "forces the reference loop; results are "
                             "bit-identical either way")


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all cores), got {jobs}")
    return jobs


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache", metavar="DIR", nargs="?", const="",
                        default=None,
                        help="enable the persistent result cache; with no "
                             "DIR, uses $REPRO_CACHE_DIR or "
                             "~/.cache/repro-bumblebee")
    parser.add_argument("--trace-cache", metavar="DIR", nargs="?",
                        const="", default=None, dest="trace_cache",
                        help="enable the on-disk packed-trace cache "
                             "(shared by all --jobs workers); with no "
                             "DIR, uses $REPRO_TRACE_CACHE or "
                             "~/.cache/repro-bumblebee/traces; "
                             "'off' disables it")


def _say(line: str) -> None:
    """Progress sink: one flushed stdout line."""
    print(line, flush=True)


def _add_grid_args(parser: argparse.ArgumentParser, required: bool,
                   help: str) -> None:
    parser.add_argument("--base", default="Bumblebee",
                        help="base design the grid parameterises "
                             "(see 'repro designs list')")
    parser.add_argument("--grid", action="append", nargs="+",
                        required=required, metavar="KEY=V1,V2,...",
                        help=help)


def _add_metric_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metric", default="norm_ipc",
                        help="metric the closing result matrix shows")


def _add_plan_args(parser: argparse.ArgumentParser,
                   out_default: str) -> None:
    """The campaign-file flags every plan command shares.

    Every command that fills a :class:`~repro.exec.CellPlan` through
    :mod:`repro.exec` shares output/resume/db/timing and the window.
    """
    parser.add_argument("--out", default=out_default)
    parser.add_argument("--workloads", nargs="+",
                        default=["mcf", "wrf", "xz", "roms"])
    parser.add_argument("--resume", action="store_true",
                        help="require an existing campaign file and "
                             "fill only its missing cells")
    parser.add_argument("--db", metavar="PATH", default=None,
                        help="also record every cell into this run "
                             "database (idempotent; see 'repro db')")
    parser.add_argument("--no-timing", action="store_true",
                        dest="no_timing",
                        help="omit per-cell timing from records, "
                             "making the campaign file byte-"
                             "deterministic")
    _add_window_args(parser)


def _add_campaign_args(parser: argparse.ArgumentParser,
                       out_default: str) -> None:
    """The plan flags plus the caches and the local and fleet-client
    backend pickers (``--jobs``, supervision, ``--fabric``)."""
    _add_plan_args(parser, out_default)
    parser.add_argument("--fabric", metavar="URL", default=None,
                        help="join a fabric fleet at URL instead of "
                             "running locally: work leased cells, "
                             "then mirror the coordinator's campaign "
                             "file to --out (see 'repro fabric')")
    _add_supervision_args(parser)
    parser.add_argument("--jobs", type=_jobs_arg, default=1,
                        help="worker processes for independent cells "
                             "(0 = all cores; results are identical to "
                             "a serial run)")
    _add_cache_args(parser)


def _add_supervision_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--supervise", action="store_true",
                        help="run cells under the supervised pool "
                             "(crash retry, quarantine) with default "
                             "policy")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="S",
                        help="per-cell wall-clock limit; a wedged "
                             "worker is killed and the cell retried "
                             "(implies --supervise)")
    parser.add_argument("--retries", type=int, default=None,
                        metavar="N",
                        help="retries per failing cell before "
                             "quarantine (default 2; implies "
                             "--supervise)")
    parser.add_argument("--backoff", type=float, default=None,
                        metavar="S",
                        help="base retry delay, doubled per attempt "
                             "with deterministic jitter (implies "
                             "--supervise)")


def _config(args: argparse.Namespace,
            workloads: Sequence[str] | None = None) -> ExperimentConfig:
    """The experiment window the flags describe (every workload when
    ``workloads`` is not given)."""
    return ExperimentConfig(
        requests=args.requests, warmup=args.warmup, seed=args.seed,
        workloads=tuple(workloads or SPEC2017),
        trace_cache_dir=getattr(args, "trace_cache", None),
        engine=args.engine)


def cmd_run(args: argparse.Namespace) -> int:
    harness = ExperimentHarness(_config(args, [args.workload]))
    comparison = harness.run_design(args.design, args.workload)
    print(f"design            : {comparison.design}")
    print(f"workload          : {comparison.workload}")
    print(f"normalised IPC    : {comparison.norm_ipc:.3f}")
    print(f"HBM hit rate      : {comparison.hbm_hit_rate:.1%}")
    print(f"HBM traffic (x)   : {comparison.norm_hbm_traffic:.2f}")
    print(f"DRAM traffic (x)  : {comparison.norm_dram_traffic:.2f}")
    print(f"dynamic energy (x): {comparison.norm_energy:.2f}")
    print(f"over-fetch        : {comparison.overfetch_fraction:.1%}")
    print(f"page faults       : {comparison.page_faults}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """The normalised IPC of designs x workloads, as a campaign."""
    if not _artefact_out(args, "compare.jsonl"):
        return 2
    return _run_plan(args, args.designs)


def _artefact_out(args: argparse.Namespace, default: str) -> bool:
    """Point ``--out`` at the file of a command that recomputes what it
    prints: unless ``--resume``, the ``default`` file is started afresh
    and an existing named ``--out`` is refused (False: exit 2)."""
    if args.out is None:
        args.out = default
        if not args.resume:
            Path(default).unlink(missing_ok=True)
    elif not args.resume and Path(args.out).exists():
        print(f"{args.out} exists; pass --resume or another --out",
              file=sys.stderr)
        return False
    return True


def cmd_figure(args: argparse.Namespace) -> int:
    """Figure 1 and Table II directly; a matrix artefact (``ARTEFACTS``)
    as a campaign reduced to the figure."""
    fig = args.id.lower()
    if fig in ("1", "table2"):
        plain = vars(build_parser().parse_args(["figure", "--id", fig]))
        if given := [f"--{name.replace('_', '-')}" for name in plain
                     if vars(args)[name] != plain[name] and name not in
                     ("id", "requests", "warmup", "seed", "engine",
                      "trace_cache")]:
            print(f"figure --id {fig} runs no cell plan; it takes only "
                  f"the window flags, not {' '.join(given)}",
                  file=sys.stderr)
            return 2
        harness = ExperimentHarness(_config(args))
        print(format_figure1(harness.figure1_line_utilisation())
              if fig == "1"
              else format_table2(harness.table2_characteristics()))
        return 0
    artefact = ARTEFACTS.get(fig)
    if artefact is None:
        print(f"unknown figure id {args.id!r}; valid: 1, 6, 7, 8a-8d, "
              "table2, overfetch, overheads", file=sys.stderr)
        return 2
    args.workloads = args.workloads or list(artefact.workloads)
    if not _artefact_out(args, f"figure-{fig}.jsonl"):
        return 2
    return _run_plan(args, artefact.designs, artefact=artefact)


def cmd_characterise(args: argparse.Namespace) -> int:
    harness = ExperimentHarness(_config(args, [args.workload]))
    results = harness.figure1_line_utilisation(workloads=(args.workload,))
    print(format_figure1(results))
    return 0


def cmd_metadata(args: argparse.Namespace) -> int:
    print(format_metadata(ExperimentHarness.sec4b_metadata()))
    return 0


def _supervision(args: argparse.Namespace):
    """The Supervision policy the campaign flags ask for, or None.

    Supervision engages when any of ``--supervise``, ``--timeout``,
    ``--retries``, or ``--backoff`` is given; its deterministic jitter
    is rooted at the experiment seed.
    """
    if not (args.supervise or args.timeout is not None
            or args.retries is not None or args.backoff is not None):
        return None
    from .resilience import Supervision
    return Supervision(
        timeout_s=args.timeout,
        max_attempts=(args.retries if args.retries is not None else 2) + 1,
        backoff_base_s=(args.backoff if args.backoff is not None
                        else 0.05),
        seed=args.seed)


def _plan_from_args(args: argparse.Namespace, designs,
                    source: str = "campaign"):
    """The :class:`~repro.exec.CellPlan` the shared plan flags
    describe: the experiment window, the cell matrix, and every
    persistence setting (campaign file, caches, run store, resume)."""
    from .exec import CellPlan
    return CellPlan(
        config=_config(args, args.workloads), designs=tuple(designs),
        workloads=tuple(args.workloads), out=args.out,
        record_timing=not args.no_timing, cache_dir=args.cache,
        db=args.db, source=source, resume=args.resume)


def _expand_grid(args: argparse.Namespace):
    """``(grid, designs)`` the ``--base``/``--grid`` flags name.

    Without ``--grid`` (``campaign``, or ``fabric serve`` without
    one) the designs are ``--designs``.  Prints why and returns None when an axis names an
    undeclared parameter or a value its schema rejects, so the caller
    exits 2 before any campaign opens.
    """
    if not getattr(args, "grid", None):
        return {}, args.designs
    try:
        grid = parse_grid([token for group in args.grid
                           for token in group])
        return grid, registry.expand_grid(args.base, grid)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None


def _backend(args: argparse.Namespace):
    """The :class:`~repro.exec.ExecutionBackend` the shared flags pick.

    ``fabric serve`` and ``explore --fabric-serve PORT`` host a fleet;
    ``--fabric URL`` joins one; any supervision flag or ``--jobs != 1``
    selects the (supervised) pool; otherwise the serial loop.  Results
    are identical on every backend — only wall-clock and failure
    handling differ.
    """
    from .exec import (FabricBackend, FleetServeBackend, PoolBackend,
                       SerialBackend)
    from .resilience import FLEET_POLICY
    if args.command == "fabric":
        # --retries here is the fleet's quarantine count, not the
        # pool's supervision flag.
        return FleetServeBackend(
            host=args.host, port=args.port,
            policy=dataclasses.replace(
                FLEET_POLICY, timeout_s=args.lease,
                max_attempts=args.retries + 1,
                quarantine_workers=args.quarantine_workers,
                seed=args.seed),
            linger_s=args.linger if args.once else None, progress=_say)
    if getattr(args, "fabric_serve", None) is not None:
        return FleetServeBackend(
            host=args.host, port=args.fabric_serve,
            policy=dataclasses.replace(FLEET_POLICY, seed=args.seed),
            progress=_say)
    if args.fabric:
        return FabricBackend(args.fabric, progress=_say)
    supervise = _supervision(args)
    if supervise is not None or args.jobs != 1:
        return PoolBackend(jobs=args.jobs, supervise=supervise)
    return SerialBackend()


def _print_timing(campaign) -> None:
    timing = campaign.timing_summary()
    if not timing["cells"]:
        return
    line = (f"timing: gen {timing['gen_s']:.2f}s + "
            f"sim {timing['sim_s']:.2f}s over "
            f"{timing['cells']:.0f} timed cells")
    if "trace_hits" in timing:
        line += (f"; trace cache: {timing['trace_hits']:.0f} hits, "
                 f"{timing['trace_misses']:.0f} misses, "
                 f"{timing['trace_generated']:.0f} generated, "
                 f"{timing.get('trace_bytes_read', 0):.0f}B read")
    if timing.get("engine_vector") or timing.get("engine_scalar"):
        line += (f"; engines: {timing.get('engine_vector', 0):.0f} "
                 f"vector / {timing.get('engine_scalar', 0):.0f} "
                 f"scalar cells "
                 f"({timing.get('vector_epochs', 0):.0f} vector "
                 f"epochs, {timing.get('policy_requests', 0):.0f} "
                 f"policy requests)")
        fallbacks = {key[len("fallback_"):].replace("_", "-"): count
                     for key, count in sorted(timing.items())
                     if key.startswith("fallback_") and count}
        if fallbacks:
            line += "; fallbacks: " + ", ".join(
                f"{reason} x{count:.0f}"
                for reason, count in fallbacks.items())
    print(line)


def _print_artefact(plan, campaign, artefact) -> int:
    """Print the artefact reduced from the plan's records; exit 1 when
    it does not pass (a ``validate`` claim missed).  A missing or
    quarantined cell prints no artefact numbers: exit 4."""
    from .exec import comparison_of
    comparisons = [comparison_of(campaign, *cell)
                   for cell in dict.fromkeys(plan.cells())]
    missing = sum(comparison is None for comparison in comparisons)
    if missing or campaign.quarantined:
        print(f"artefact not rendered: {missing} of {len(comparisons)} "
              f"cells missing; rerun with --resume to fill them",
              file=sys.stderr)
        return 4
    result = artefact.reduce(comparisons, plan.config.scale)
    print()
    print(artefact.render(result))
    return 0 if artefact.passed(result) else 1


def _report_campaign(args: argparse.Namespace, plan, outcome,
                     artefact=None) -> int:
    """The closing lines of every plan command, whichever backend ran
    it: the backend's notes, the campaign line, the run store, timing,
    then the artefact (``figure``, ``compare``, ``validate``) or the
    ``--metric`` matrix (commands that render one) and the quarantine
    trailer."""
    campaign = outcome.campaign
    for note in outcome.notes:
        print(note)
    print(f"campaign: {campaign.completed_cells} cells complete "
          f"({outcome.new_runs} new) -> {plan.out}")
    if campaign.store is not None:
        print(f"db: {campaign.store.run_count} runs in {plan.db}")
    _print_timing(campaign)
    code = 0
    metric = getattr(args, "metric", None)
    if artefact is not None:
        code = _print_artefact(plan, campaign, artefact)
    elif metric is not None:
        if (campaign.completed_cells
                and metric not in campaign.available_metrics()):
            print(f"--metric {metric!r}: no record carries it; "
                  f"available: {', '.join(campaign.available_metrics())}",
                  file=sys.stderr)
            return 2
        print()
        print(campaign.render(metric))
    if campaign.quarantined:
        print()
        print(campaign.render_quarantine())
        return 4
    return code


def _spec_error(harness, designs) -> str | None:
    """``<spec name>: <message>`` for the first design whose controller
    cannot be built on its cell's devices, else None.

    Each distinct spec is built once, so a value a builder rejects (a
    zero page size, a block size that does not divide the page) stops
    the run before the campaign file opens instead of surfacing as a
    traceback from the first cell.
    """
    for design in dict.fromkeys(designs):
        try:
            spec = registry.resolve(design)
            registry.build(spec, *harness.devices(spec),
                           sram_bytes=harness.config.scale.sram_bytes)
        except ValueError as exc:
            return f"{getattr(design, 'name', design)}: {exc}"
    return None


def _open_campaign(args: argparse.Namespace, plan):
    """Open the plan's campaign once every spec in it builds.

    Prints ``<spec>: <message>`` (or why the file cannot be opened) and
    returns None when a spec's controller cannot be built or the
    campaign cannot open (a bad ``--resume``, a file that is not JSON
    Lines), so the caller exits 2 before any cell runs.
    """
    harness = plan.build_harness()
    error = _spec_error(harness, plan.designs)
    if error is not None:
        print(error, file=sys.stderr)
        return None
    if getattr(args, "fabric", None):
        # The fleet's file replaces this one, so only the mirror that
        # FabricBackend reloads meets the run store.
        plan = dataclasses.replace(plan, db=None)
    try:
        campaign = plan.open_campaign(harness)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None
    if campaign.recovered_lines:
        print(f"recovered campaign file: {campaign.recovered_lines} "
              f"damaged line(s) dropped and compacted")
    if args.resume:
        print(f"resuming: {campaign.completed_cells} cells already "
              f"complete in {args.out}")
    return campaign


def _run_plan(args: argparse.Namespace, designs,
              source: str = "campaign", drive=None, artefact=None) -> int:
    """The one plan/execute/report path of every plan command.

    ``designs`` mixes registered names and
    :class:`~repro.designs.DesignSpec` sweep points.  The backend —
    serial, pool, fleet client or hosted fleet — comes from the shared
    flags.  ``drive(backend, plan, campaign)``, when given, replaces the
    backend's whole-plan ``execute`` (the explorer's adaptive search)
    and returns the same :class:`~repro.exec.ExecutionOutcome`.  An
    ``artefact`` (:class:`~repro.analysis.artefacts.Artefact`) reduces
    the filled plan in place of the ``--metric`` matrix.  The closing
    lines are the same on every path (:func:`_report_campaign`).  Exit
    codes: 0 complete, 1 an artefact that does not pass (a ``validate``
    claim missed), 2 usage (a spec whose controller cannot be built, a
    campaign file that cannot open or holds another window's records, a
    --metric no record carries, a backend that cannot run the request,
    a fleet port that cannot be bound, fabric config errors), 3 fabric
    unreachable, 4 quarantined or missing cells, 130 interrupted.
    """
    from .analysis import CampaignInterrupted
    from .exec import PlanError
    from .fabric import FabricUnreachable
    plan = _plan_from_args(args, designs, source)
    campaign = _open_campaign(args, plan)
    if campaign is None:
        return 2
    backend = _backend(args)
    try:
        outcome = (drive(backend, plan, campaign) if drive is not None
                   else backend.execute(plan, campaign))
    except CampaignInterrupted as interrupted:
        print(f"interrupted: {interrupted.completed} cells persisted in "
              f"{interrupted.path}; rerun with --resume to continue",
              file=sys.stderr)
        return 130
    except FabricUnreachable as exc:
        print(exc, file=sys.stderr)
        return 3
    except PlanError as exc:
        print(exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        if backend.name == "fabric":
            # Worker-side configuration errors (version skew, a URL
            # that is not a coordinator, a refused /file mirror).
            print(exc, file=sys.stderr)
            return 2
        raise
    finally:
        backend.close()
    return _report_campaign(args, plan, outcome, artefact)


def cmd_campaign(args: argparse.Namespace) -> int:
    """Fill (or resume) a persisted design x workload result matrix;
    ``repro fabric serve`` fills it through a hosted worker fleet."""
    expanded = _expand_grid(args)
    if expanded is None:
        return 2
    return _run_plan(args, expanded[1], source="campaign")


def cmd_fabric_work(args: argparse.Namespace) -> int:
    """Run cells leased by a fabric coordinator until it is done."""
    from .fabric import FabricUnreachable, run_worker
    try:
        completed = run_worker(
            args.url, worker_id=args.worker_id,
            max_cells=args.max_cells, local_caches=args.local_caches,
            progress=_say if args.verbose else None)
    except FabricUnreachable as exc:
        print(exc, file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"worker: completed {completed} cell(s)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Expand a parameter grid into specs and run them as a campaign."""
    expanded = _expand_grid(args)
    if expanded is None:
        return 2
    grid, specs = expanded
    axes = " x ".join(f"{key}[{len(values)}]"
                      for key, values in grid.items())
    print(f"sweep: {args.base} over {axes} = {len(specs)} specs x "
          f"{len(args.workloads)} workloads "
          f"({len(specs) * len(args.workloads)} cells)")
    return _run_plan(args, specs, source="sweep")


def cmd_explore(args: argparse.Namespace) -> int:
    """Budgeted Pareto-frontier search over a parameter grid.

    Runs through :func:`_run_plan` with the search in place of
    ``execute``, so exit codes and closing lines are ``campaign``'s
    (bad objectives are one more usage error, exit 2).
    """
    from .exec import (ExecutionOutcome, PlanError, explore_frontier,
                       parse_objectives)
    expanded = _expand_grid(args)
    if expanded is None:
        return 2
    grid, specs = expanded
    try:
        objectives = parse_objectives(args.objectives)
    except PlanError as exc:
        print(exc, file=sys.stderr)
        return 2
    axes = " x ".join(f"{key}[{len(values)}]"
                      for key, values in grid.items())
    budget = "unlimited" if args.budget is None else str(args.budget)
    print(f"explore: {args.base} over {axes} = {len(specs)} candidate "
          f"spec(s) x {len(args.workloads)} workloads; objectives "
          f"{','.join(o.key for o in objectives)}; budget {budget}")

    def search(backend, plan, campaign) -> ExecutionOutcome:
        before = campaign.completed_cells
        report = explore_frontier(
            campaign, backend, specs, args.workloads,
            objectives=objectives, budget=args.budget, grid=grid,
            progress=_say if args.verbose else None).render()
        print(report)
        if args.report:
            Path(args.report).write_text(report + "\n")
            print(f"report -> {args.report}")
        return ExecutionOutcome(campaign,
                                campaign.completed_cells - before)

    return _run_plan(args, specs, source="explore", drive=search)


def cmd_designs(args: argparse.Namespace) -> int:
    """Inspect the design registry (``list`` / ``show NAME``)."""
    if args.action == "list":
        names = registry.names()
        width = max(len(name) for name in names)
        base_width = max(len(registry.spec(name).base) for name in names)
        print(f"{'design':<{width}} {'base':<{base_width}} "
              f"{'figures':<12} parameters")
        for name in names:
            spec = registry.spec(name)
            entry = registry.describe(name)
            figures = ",".join(f"{fig}#{index}"
                               for fig, index in entry.figures) or "-"
            params = ", ".join(f"{key}={value}"
                               for key, value in spec.params) or "-"
            print(f"{name:<{width}} {spec.base:<{base_width}} "
                  f"{figures:<12} {params}")
        print(f"\n{len(names)} designs over "
              f"{len(registry.base_names())} base designs; "
              f"'repro designs show NAME' for schemas and spec hashes")
        return 0
    try:
        spec = registry.spec(args.name)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    entry = registry.describe(args.name)
    base = registry.design(spec.base)
    print(f"design    : {spec.name}")
    print(f"base      : {spec.base}")
    if entry.description:
        print(f"about     : {entry.description}")
    from .sim import fallback_reason
    harness = ExperimentHarness(ExperimentConfig(trace_cache_dir="off"))
    reason = fallback_reason(registry.build(
        spec, *harness.devices(spec),
        sram_bytes=harness.config.scale.sram_bytes))
    print("replay    : " + ("vectorized two-pass epoch engine"
                            if reason is None else f"scalar loop ({reason})"))
    if entry.figures:
        print("figures   : " + ", ".join(
            f"{fig} bar {index}" for fig, index in entry.figures))
    print(f"spec hash : {spec.spec_hash}")
    print(f"spec json : {spec.to_json()}")
    overrides = spec.param_dict
    if base.params:
        print("parameters:")
        for key in sorted(base.params):
            default = base.params[key]
            if key in overrides:
                print(f"  {key} = {overrides[key]!r} "
                      f"(default {default!r})")
            else:
                print(f"  {key} = {default!r}")
    else:
        print("parameters: (none declared)")
    return 0


def cmd_db(args: argparse.Namespace) -> int:
    """Campaign observatory: ingest/query/trend/regress/pin/dashboard.

    Exit codes follow the ``repro validate`` contract where a verdict
    exists: ``regress`` returns 0 when every compared metric is within
    tolerance, 1 on any drift or missing pinned cell, 2 on usage
    errors (bad paths, malformed goldens, unknown metrics).
    """
    import json

    from .observatory import (RunStore, check_regression, load_golden,
                              pin_golden, regression_passed,
                              render_dashboard, render_regress)
    from .observatory.store import load_jsonl_records

    if args.action == "ingest":
        store = RunStore(args.db)
        total_added = total_seen = 0
        for path in args.paths:
            try:
                added, seen = store.ingest_path(path, source=args.source)
            except (FileNotFoundError, ValueError,
                    json.JSONDecodeError) as exc:
                print(f"ingest {path}: {exc}", file=sys.stderr)
                return 2
            print(f"ingest {path}: {added} new / {seen} records")
            total_added += added
            total_seen += seen
        print(f"db: {store.run_count} runs in {args.db} "
              f"(+{total_added} this ingest)")
        return 0

    if args.action == "query":
        store = RunStore(args.db)
        records = store.query(design=args.design,
                              workload=args.workload,
                              source=args.source, version=args.version,
                              limit=args.limit)
        metric = args.metric
        print(f"{'design':>24} {'workload':>10} {'version':>8} "
              f"{'source':>9} {metric:>16}")
        for record in records:
            value = record.get(metric)
            cell = (f"{value:16.4f}"
                    if isinstance(value, (int, float))
                    and not isinstance(value, bool) else f"{'n/a':>16}")
            print(f"{str(record.get('design')):>24} "
                  f"{str(record.get('workload')):>10} "
                  f"{str(record.get('_version') or '-'):>8} "
                  f"{record['_source']:>9} {cell}")
        print(f"{len(records)} run(s) matched")
        return 0

    if args.action == "trend":
        store = RunStore(args.db)
        rows = store.trend(args.metric, design=args.design,
                           workload=args.workload, source=args.source)
        if not rows:
            print(f"no runs carry metric {args.metric!r}; known: "
                  f"{', '.join(store.metric_names()) or '(none)'}",
                  file=sys.stderr)
            return 2
        print(f"{'version':>10} {'mean':>12} {'min':>12} {'max':>12} "
              f"{'runs':>5}")
        for row in rows:
            print(f"{str(row['version'] or '-'):>10} "
                  f"{row['mean']:12.4f} {row['min']:12.4f} "
                  f"{row['max']:12.4f} {row['runs']:5d}")
        from .analysis import sparkline
        if len(rows) > 1:
            print(f"trend: {sparkline([row['mean'] for row in rows])}")
        return 0

    if args.action == "pin":
        tols = {key: value for key, value in
                (("abs_tol", args.abs_tol), ("rel_tol", args.rel_tol))
                if value is not None}
        try:
            records = load_jsonl_records(Path(args.campaign))
            golden = pin_golden(records, **tols)
        except (FileNotFoundError, ValueError) as exc:
            print(f"pin: {exc}", file=sys.stderr)
            return 2
        Path(args.golden).write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"pinned {len(golden['cells'])} cells from "
              f"{args.campaign} -> {args.golden}")
        return 0

    if args.action == "regress":
        try:
            records = load_jsonl_records(Path(args.campaign))
            golden = load_golden(args.golden)
        except (FileNotFoundError, ValueError) as exc:
            print(f"regress: {exc}", file=sys.stderr)
            return 2
        checks = check_regression(records, golden)
        print(render_regress(checks))
        return 0 if regression_passed(checks) else 1

    # dashboard
    store = RunStore(args.db)
    html = render_dashboard(store, title=args.title)
    Path(args.out).write_text(html)
    print(f"dashboard: {store.run_count} runs -> {args.out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Fill the validation plan and check every shape claim; exit 1 on
    a miss."""
    if not _artefact_out(args, "validate.jsonl"):
        return 2
    return _run_plan(args, VALIDATION.designs, artefact=VALIDATION)


def cmd_sanitize(args: argparse.Namespace) -> int:
    """Differential replay + invariant sweep; exit 1 on any failure."""
    from .analysis import SANITIZE_DESIGNS, run_differential
    if args.vector_epoch is not None and args.vector_epoch <= 0:
        print(f"--vector-epoch must be a positive integer, got "
              f"{args.vector_epoch}", file=sys.stderr)
        return 2
    if args.designs == ["all"]:
        designs = list(SANITIZE_DESIGNS)
    else:
        unknown = [d for d in args.designs if d not in SANITIZE_DESIGNS]
        if unknown:
            print(f"unknown design(s) {', '.join(unknown)}; valid: "
                  f"{', '.join(SANITIZE_DESIGNS)} (or 'all')",
                  file=sys.stderr)
            return 2
        designs = args.designs
    report = run_differential(
        designs=designs, seeds=args.seeds, requests=args.requests,
        warmup=args.warmup, epoch_requests=args.epoch,
        out_dir=args.out_dir,
        progress=_say if args.verbose else None,
        vector_epoch=args.vector_epoch)
    print(report.render())
    return 0 if report.passed else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded fault-injection sweep; exit 1 on any failed scenario."""
    from .resilience.chaos import run_chaos
    try:
        report = run_chaos(
            scenarios=args.scenarios, seed=args.seed, jobs=args.jobs,
            requests=args.requests, warmup=args.warmup,
            out_dir=args.out_dir,
            progress=_say if args.verbose else None)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    # --verbose already streamed each case's line.
    print(report.verdict if args.verbose else report.render())
    return 0 if report.passed else 1


def cmd_mix(args: argparse.Namespace) -> int:
    members = build_mix(MIX_PRESETS[args.preset])
    trace = mix_trace(members, args.requests + args.warmup,
                      seed=args.seed)
    harness = ExperimentHarness(_config(args, ["mcf"]))  # devices only
    driver = SimulationDriver()
    baseline = driver.run(
        registry.build("No-HBM", harness.hbm_config, harness.dram_config),
        trace, workload=args.preset, warmup=args.warmup,
        engine=args.engine)
    controller = registry.build(
        args.design, harness.hbm_config, harness.dram_config,
        sram_bytes=harness.config.scale.sram_bytes)
    result = driver.run(controller, trace, workload=args.preset,
                        warmup=args.warmup, engine=args.engine)
    print(f"mix               : {args.preset} "
          f"({', '.join(m.spec.name for m in members)})")
    print(f"design            : {args.design}")
    print(f"normalised IPC    : {result.normalised_ipc(baseline):.3f}")
    print(f"HBM hit rate      : {result.hbm_hit_rate:.1%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bumblebee (DAC 2023) reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one design on one workload")
    run.add_argument("--design", default="Bumblebee",
                     choices=sorted(registry.names()))
    run.add_argument("--workload", default="mcf",
                     choices=sorted(SPEC2017))
    _add_window_args(run)
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare",
                             help="normalised IPC matrix of designs")
    compare.add_argument("--designs", nargs="+", default=FIGURE8_DESIGNS)
    # --out defaults to compare.jsonl, started afresh unless --resume.
    _add_campaign_args(compare, out_default=None)
    compare.set_defaults(func=cmd_compare, workloads=["mcf", "wrf", "xz"],
                         metric="norm_ipc")

    figure = sub.add_parser("figure", help="regenerate a paper artefact")
    figure.add_argument("--id", required=True,
                        help="1, 6, 7, 8a-8d, table2, overfetch, overheads")
    # --out defaults to figure-<id>.jsonl, started afresh unless
    # --resume; --workloads to the figure's.
    _add_campaign_args(figure, out_default=None)
    figure.set_defaults(func=cmd_figure, workloads=None)

    characterise = sub.add_parser(
        "characterise", help="Figure 1 study for one workload")
    characterise.add_argument("--workload", default="mcf",
                              choices=sorted(SPEC2017))
    _add_window_args(characterise)
    characterise.set_defaults(func=cmd_characterise)

    metadata = sub.add_parser("metadata",
                              help="SIV-B metadata budgets (paper scale)")
    _add_window_args(metadata)
    metadata.set_defaults(func=cmd_metadata)

    campaign = sub.add_parser(
        "campaign", help="fill/resume a persisted result matrix")
    campaign.add_argument("--designs", nargs="+",
                          default=list(FIGURE8_DESIGNS))
    _add_campaign_args(campaign, out_default="campaign.json")
    _add_metric_arg(campaign)
    campaign.set_defaults(func=cmd_campaign)

    sweep = sub.add_parser(
        "sweep",
        help="expand a parameter grid into a resumable spec campaign")
    _add_grid_args(sweep, required=True,
                   help="one sweep axis: a declared parameter and its "
                        "values (repeatable; axes cross-multiply, last "
                        "axis varying fastest)")
    _add_campaign_args(sweep, out_default="sweep.jsonl")
    _add_metric_arg(sweep)
    sweep.set_defaults(func=cmd_sweep)

    explore = sub.add_parser(
        "explore",
        help="budgeted Pareto-frontier search over a parameter grid")
    _add_grid_args(explore, required=True,
                   help="one search axis: a declared parameter and its "
                        "ordered values (repeatable; neighbour "
                        "refinement steps along each axis)")
    explore.add_argument("--objectives",
                         default="ipc,hbm_traffic,energy",
                         help="ordered comma-separated objectives; the "
                              "first ranks the frontier report (valid: "
                              "ipc, hbm_traffic, dram_traffic, energy, "
                              "hit_rate, overfetch)")
    explore.add_argument("--budget", type=int, default=None,
                         metavar="N",
                         help="maximum cells to request (cached and "
                              "resumed cells count too, keeping the "
                              "search deterministic; default: "
                              "unlimited)")
    explore.add_argument("--report", metavar="PATH", default=None,
                         help="also write the frontier report to this "
                              "file")
    explore.add_argument("--fabric-serve", type=int, default=None,
                         dest="fabric_serve", metavar="PORT",
                         help="host a fabric coordinator on PORT "
                              "(0 = ephemeral) and lease the search's "
                              "cell batches to attached 'repro fabric "
                              "work' workers instead of running "
                              "locally")
    explore.add_argument("--host", default="127.0.0.1",
                         help="listen address for --fabric-serve")
    explore.add_argument("--verbose", action="store_true",
                         help="print one line per search round")
    _add_campaign_args(explore, out_default="explore.jsonl")
    explore.set_defaults(func=cmd_explore)

    designs = sub.add_parser(
        "designs", help="inspect the design registry")
    designs_sub = designs.add_subparsers(dest="action", required=True)
    designs_sub.add_parser(
        "list", help="every registered design, base, and parameters")
    show = designs_sub.add_parser(
        "show", help="one design's schema, spec JSON, and stable hash")
    show.add_argument("name")
    designs.set_defaults(func=cmd_designs)

    db = sub.add_parser(
        "db", help="campaign observatory: run store, trends, gating")
    db_sub = db.add_subparsers(dest="action", required=True)

    db_ingest = db_sub.add_parser(
        "ingest", help="idempotently ingest campaign/sweep/chaos JSONL "
                       "and BENCH_*.json artifacts")
    db_ingest.add_argument("paths", nargs="+", metavar="PATH",
                           help="files or directories of run artifacts")
    db_ingest.add_argument("--db", default="runs.db",
                           help="run database (created on first use)")
    db_ingest.add_argument("--source", default=None,
                           choices=("campaign", "sweep", "explore",
                                    "chaos"),
                           help="source label for JSONL records "
                                "(default: campaign; BENCH_*.json "
                                "always lands as 'bench')")

    db_query = db_sub.add_parser(
        "query", help="list stored runs matching filters")
    db_query.add_argument("--db", default="runs.db")
    db_query.add_argument("--design", default=None)
    db_query.add_argument("--workload", default=None)
    db_query.add_argument("--source", default=None)
    db_query.add_argument("--version", default=None,
                          help="package version that produced the run")
    db_query.add_argument("--metric", default="norm_ipc",
                          help="metric column to print (n/a when a "
                               "run lacks it)")
    db_query.add_argument("--limit", type=int, default=None)

    db_trend = db_sub.add_parser(
        "trend", help="one metric's trajectory across package versions")
    db_trend.add_argument("--db", default="runs.db")
    db_trend.add_argument("--metric", required=True)
    db_trend.add_argument("--design", default=None)
    db_trend.add_argument("--workload", default=None)
    db_trend.add_argument("--source", default=None)

    db_pin = db_sub.add_parser(
        "pin", help="pin a campaign file as a golden snapshot")
    db_pin.add_argument("campaign", metavar="CAMPAIGN",
                        help="campaign/sweep JSONL to pin")
    db_pin.add_argument("--golden", required=True, metavar="OUT",
                        help="golden snapshot file to write")
    db_pin.add_argument("--abs-tol", type=float, default=None,
                        dest="abs_tol",
                        help="absolute tolerance per metric")
    db_pin.add_argument("--rel-tol", type=float, default=None,
                        dest="rel_tol",
                        help="relative tolerance per metric")

    db_regress = db_sub.add_parser(
        "regress", help="gate a campaign against a pinned golden; "
                        "exit 1 on drift")
    db_regress.add_argument("campaign", metavar="CAMPAIGN",
                            help="candidate campaign/sweep JSONL")
    db_regress.add_argument("--golden", required=True,
                            help="golden snapshot (see 'repro db pin')")

    db_dashboard = db_sub.add_parser(
        "dashboard", help="render the store as one static HTML file")
    db_dashboard.add_argument("--db", default="runs.db")
    db_dashboard.add_argument("--out", default="dashboard.html")
    db_dashboard.add_argument("--title", default="repro observatory")
    db.set_defaults(func=cmd_db)

    validate = sub.add_parser(
        "validate", help="check every paper shape claim; exit 1 on miss")
    # --out defaults to validate.jsonl, started afresh unless --resume.
    _add_campaign_args(validate, out_default=None)
    validate.set_defaults(func=cmd_validate,
                          workloads=list(VALIDATION.workloads))

    sanitize = sub.add_parser(
        "sanitize",
        help="differential replay + invariant sweep; exit 1 on failure")
    sanitize.add_argument("--designs", nargs="+", default=["all"],
                          help="design names, or 'all' for the full "
                               "sanitize set")
    sanitize.add_argument("--seeds", type=int, default=3,
                          help="randomized traces per design")
    sanitize.add_argument("--requests", type=int, default=20_000,
                          help="trace length per case (incl. warm-up)")
    sanitize.add_argument("--warmup", type=int, default=4_000,
                          help="warm-up requests before measurement")
    sanitize.add_argument("--epoch", type=int, default=1024,
                          help="invariant-check epoch (requests)")
    sanitize.add_argument("--vector-epoch", type=int, default=None,
                          help="epoch size for the vectorized replay "
                               "leg (default: engine default); small "
                               "values stress cross-epoch state carry")
    sanitize.add_argument("--out-dir", default="sanitize-failures",
                          help="where failing reproducers are written")
    sanitize.add_argument("--verbose", action="store_true",
                          help="print one line per case as it completes")
    sanitize.set_defaults(func=cmd_sanitize)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection sweep; exit 1 on failure")
    chaos.add_argument("--scenarios", nargs="+", default=None,
                       help="scenario names (default: the full sweep)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="root of every injected-fault decision")
    chaos.add_argument("--jobs", type=_jobs_arg, default=2,
                       help="supervised workers in crash/hang scenarios")
    chaos.add_argument("--requests", type=int, default=1200,
                       help="measured misses per scenario campaign")
    chaos.add_argument("--warmup", type=int, default=300,
                       help="warm-up misses per scenario campaign")
    chaos.add_argument("--out-dir", default="chaos-artifacts",
                       help="where campaign files and corrupted cache "
                            "trees are kept for post-mortem")
    chaos.add_argument("--verbose", action="store_true",
                       help="print one line per scenario as it completes")
    chaos.set_defaults(func=cmd_chaos)

    fabric = sub.add_parser(
        "fabric",
        help="distributed campaigns: lease cells to worker fleets")
    fabric_sub = fabric.add_subparsers(dest="action", required=True)

    serve = fabric_sub.add_parser(
        "serve", help="coordinate: lease campaign cells over HTTP and "
                      "merge results into one campaign file")
    serve.add_argument("--designs", nargs="+",
                       default=list(FIGURE8_DESIGNS))
    _add_grid_args(serve, required=False,
                   help="sweep axis (repeatable); when given, the "
                        "expanded grid replaces --designs")
    _add_plan_args(serve, out_default="fabric.jsonl")
    _add_cache_args(serve)
    _add_metric_arg(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 = ephemeral, announced on "
                            "stdout)")
    serve.add_argument("--lease", type=float, default=30.0, metavar="S",
                       help="lease length; a cell whose worker stops "
                            "heartbeating this long is reclaimed and "
                            "re-issued")
    serve.add_argument("--retries", type=int, default=3, metavar="N",
                       help="failures per cell before quarantine")
    serve.add_argument("--quarantine-workers", type=int, default=2,
                       dest="quarantine_workers", metavar="N",
                       help="distinct failing workers that quarantine "
                            "a cell fleet-wide")
    serve.add_argument("--once", action="store_true",
                       help="exit once every cell is resolved (after "
                            "--linger seconds for stragglers)")
    serve.add_argument("--linger", type=float, default=2.0, metavar="S",
                       help="with --once, how long to keep serving "
                            "after the last cell resolves")
    serve.set_defaults(func=cmd_campaign)

    work = fabric_sub.add_parser(
        "work", help="run cells leased by a fabric coordinator")
    work.add_argument("url", metavar="URL",
                      help="coordinator base URL (http://host:port)")
    work.add_argument("--worker-id", default=None, dest="worker_id",
                      help="identity for leases and fault matching "
                           "(default: <hostname>-<pid>)")
    work.add_argument("--max-cells", type=int, default=None,
                      dest="max_cells",
                      help="stop after completing this many cells")
    work.add_argument("--local-caches", action="store_true",
                      dest="local_caches",
                      help="keep local caches instead of the "
                           "coordinator's shared HTTP caches")
    work.add_argument("--verbose", action="store_true",
                      help="print one line per leased cell")
    work.set_defaults(func=cmd_fabric_work)

    mix = sub.add_parser("mix", help="run a multi-programmed mix")
    mix.add_argument("--preset", default="mix-fig1",
                     choices=sorted(MIX_PRESETS))
    mix.add_argument("--design", default="Bumblebee",
                     choices=sorted(registry.names()))
    _add_window_args(mix)
    mix.set_defaults(func=cmd_mix)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
