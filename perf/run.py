"""Run the benchmark.

    python -m perf.run [--workload NAME]... [--seed N] [--seconds S]
                       [--trace 0|1] [--out DIR]

With no ``--workload`` every workload in ``BENCHMARK.json`` runs, each
in its own process.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced pass, and no
``--trace`` both.  ``--seconds`` defaults to ``run_seconds`` of
``BENCHMARK.json``.  ``--out DIR`` keeps a ``BENCH_perf_<workload>.json``
record per run (what ``perf.compare`` and ``repro db ingest`` read) and
the traced pass's Chrome trace under ``DIR/traces/``.

The last line of the output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
``src/repro`` sources next to ``perf/`` the run exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from perf import ROOT, SRC, load_benchmark, quartiles


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m perf.run",
        description="host-time benchmark of the repro campaign stack")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1234,
                        help="ExperimentConfig.seed of every cell")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-round budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer "
                             "metrics; default both")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for run records and traces")
    return parser


def _free_name(directory: Path, stem: str) -> tuple[Path, str]:
    """``directory/stem.json``, or the first free ``stem.<k>.json``."""
    suffix = ""
    k = 1
    while (directory / f"{stem}{suffix}.json").exists():
        k += 1
        suffix = f".{k}"
    return directory / f"{stem}{suffix}.json", suffix


def _write_outputs(out: Path, record: dict, trace_events) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path, suffix = _free_name(out, f"BENCH_perf_{record['workload']}")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if trace_events is not None:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        (traces / f"{record['workload']}{suffix}.json").write_text(
            json.dumps(trace_events))
    return path


def select_metrics(result, trace: "int | None", benchmark: dict) -> dict:
    """``name -> (value, unit)`` of every metric a ``--trace`` setting
    reports, in ``BENCHMARK.json`` order.

    A metric the run did not produce (a traced round raised, which has
    already failed the run's checks) reads 0.
    """
    sections = [key for key, wanted in (("end_to_end", trace != 1),
                                        ("per_layer", trace != 0))
                if wanted]
    measured = {**result.end_to_end, **result.per_layer}
    return {metric["name"]: (float(measured.get(metric["name"], 0.0)),
                             metric["unit"])
            for key in sections for metric in benchmark[key]}


def _report(spec, result, seconds: float, shown: dict) -> None:
    """Human-readable lines; every metric line reads ``metric NAME``."""
    cells = len(spec.cells)
    print(f"perf {spec.name}: seed {result.seed}, {cells} cells "
          f"({len(spec.designs)} designs x {len(spec.workloads)} "
          f"workloads), window {spec.requests}+{spec.warmup}, "
          f"{seconds:g} s budget")
    print(f"  state: {result.state_dir} ({result.state_fs})")
    samples = result.samples
    if "wall_s" in samples:
        q1, q2, q3 = quartiles(samples["wall_s"])
        ref = quartiles(samples["ref_s"])[1]
        print(f"  timed rounds: {len(samples['wall_s'])}, wall q1/median/q3 "
              f"{q1:.4f}/{q2:.4f}/{q3:.4f} s, reference kernel median "
              f"{ref * 1e3:.2f} ms; set-up samples: "
              f"{len(samples['import_s'])} imports, "
              f"{len(samples['prepare_s'])} one-time, "
              f"{len(samples['round_prep_s'])} per-round")
    if "traced_s" in samples:
        print(f"  traced rounds: {len(samples['traced_s'])}")
    traced_s = result.per_layer.get("bench.traced_round_s", 0.0)
    for name, (value, unit) in shown.items():
        line = f"  metric {name:<30} {value:>14.6g} {unit}"
        if name.endswith(".share"):
            line += f"  (self {value * traced_s:.4f} s per round)"
        print(line)
    failed = len(result.failed)
    print(f"  cells: {result.attempted} attempted, {failed} failed "
          f"(ops_failed_frac {failed / result.attempted:.4f})")
    for design, workload in result.failed:
        print(f"  failed cell: {design}/{workload}")
    for line in result.checks:
        print(f"  check: {line}")
    print(f"  results_digest: {result.results_digest}")


def _run_one(name: str, args, seconds: float, benchmark: dict) -> int:
    sys.path.insert(0, str(SRC))
    import repro
    from perf.workloads import WORKLOADS, measure

    spec = WORKLOADS[name]
    result = measure(spec, args.seed, seconds, args.trace)
    shown = select_metrics(result, args.trace, benchmark)
    _report(spec, result, seconds, shown)
    if args.out is not None:
        record = {
            "slug": "perf", "title": f"perf {name}", "workload": name,
            "version": repro.__version__,
            "config": {"seed": args.seed, "requests": spec.requests,
                       "warmup": spec.warmup, "seconds": seconds,
                       "trace": args.trace,
                       "rounds": len(result.samples.get("wall_s", ())),
                       "traced_rounds": len(result.samples.get("traced_s",
                                                               ())),
                       "state_fs": result.state_fs},
            "metrics": {metric: value
                        for metric, (value, _) in shown.items()},
            "units": {metric: unit for metric, (_, unit) in shown.items()},
            "correct": result.correct, "attempted": result.attempted,
            "failed": len(result.failed),
            "failed_cells": [list(cell) for cell in result.failed],
            "checks": result.checks,
            "results_digest": result.results_digest,
            "samples": result.samples,
        }
        path = _write_outputs(args.out, record, result.trace_events)
        print(f"  record: {path}")
    print(json.dumps({
        "correct": result.correct, "attempted": result.attempted,
        "failed": len(result.failed),
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in shown.items()}}))
    return 0


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: no repro sources at {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    known = [workload["name"] for workload in benchmark["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"known: {', '.join(known)}")
    seconds = (benchmark["run_seconds"] if args.seconds is None
               else args.seconds)
    if len(names) == 1:
        return _run_one(names[0], args, seconds, benchmark)
    worst = 0
    for name in names:
        command = [sys.executable, "-m", "perf.run", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds)]
        if args.trace is not None:
            command += ["--trace", str(args.trace)]
        if args.out is not None:
            command += ["--out", str(args.out.resolve())]
        worst = max(worst, subprocess.run(command, cwd=ROOT).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
