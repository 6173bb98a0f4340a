"""Scalar-engine reference check of campaign cells.

The scalar replay loop is the engine the repository documents as its
reference; the epoch engine must reproduce it bit for bit.  For every
cell this module replays the trace on both engines, diffs
``SimResult.to_record()`` field by field, and (given the campaign's
records) checks that the stored record is exactly the comparison the
epoch run produces.

Run it on any matrix, outside the benchmark workloads::

    PYTHONPATH=src python -m perf.reference --designs Bumblebee \\
        --workloads lbm --requests 60000 --warmup 30000

It prints one line per differing field and exits 1 when any differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys


def flatten(value, prefix: str = "") -> dict:
    """Nested dicts/lists as ``{"a.b[2]": leaf}``."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            out.update(flatten(item, f"{prefix}.{key}" if prefix else
                               str(key)))
        return out
    if isinstance(value, list):
        out = {}
        for index, item in enumerate(value):
            out.update(flatten(item, f"{prefix}[{index}]"))
        return out
    return {prefix: value}


def diff_records(reference: dict, candidate: dict) -> list[tuple]:
    """``(field, reference value, candidate value)`` for every leaf that
    differs; a leaf missing on one side reads as None."""
    ref, cand = flatten(reference), flatten(candidate)
    return [(field, ref.get(field), cand.get(field))
            for field in sorted(ref.keys() | cand.keys())
            if ref.get(field) != cand.get(field)
            or (field in ref) != (field in cand)]


def reference_check(designs, workloads, requests: int, warmup: int,
                    seed: int, records: "dict | None" = None
                    ) -> tuple[set, list[str]]:
    """Replay every cell on the scalar and the auto engine and diff.

    Args:
        designs / workloads: The cell matrix.
        requests / warmup / seed: The experiment window.
        records: Optional ``(design, workload) -> campaign record``;
            each record must equal the comparison of the auto-engine
            run against the auto-engine baseline.

    Returns:
        ``(failed cells, report lines)``.  A differing no-HBM baseline
        fails every cell of its workload: all of them normalise by it.
    """
    from repro.analysis.experiments import ExperimentConfig, ExperimentHarness
    from repro.analysis.metrics import compare
    from repro.designs import registry

    harness = ExperimentHarness(ExperimentConfig(
        requests=requests, warmup=warmup, seed=seed,
        workloads=tuple(workloads)))

    def replay(design: str, workload: str, engine: str):
        controller = registry.build(
            design, harness.hbm_config, harness.dram_config,
            sram_bytes=harness.config.scale.sram_bytes)
        return harness.driver.run(controller, harness.trace(workload),
                                  workload=workload, warmup=warmup,
                                  engine=engine)

    failed: set = set()
    lines: list[str] = []

    def report(design, workload, diffs, what) -> bool:
        for field, ref, got in diffs:
            lines.append(f"{what} {design}/{workload}: {field} "
                         f"reference={ref!r} got={got!r}")
        return bool(diffs)

    for workload in workloads:
        base_scalar = replay("No-HBM", workload, "scalar")
        baseline = replay("No-HBM", workload, "auto")
        base_bad = report("No-HBM", workload,
                          diff_records(base_scalar.to_record(),
                                       baseline.to_record()),
                          "engine-diff")
        for design in designs:
            scalar = replay(design, workload, "scalar")
            epoch = replay(design, workload, "auto")
            bad = report(design, workload,
                         diff_records(scalar.to_record(),
                                      epoch.to_record()), "engine-diff")
            if records is not None:
                stored = records.get((design, workload))
                if stored is None:
                    lines.append(f"campaign {design}/{workload}: "
                                 f"record missing")
                    bad = True
                else:
                    expected = dataclasses.asdict(compare(epoch, baseline))
                    stored = {key: value for key, value in stored.items()
                              if key != "config"}
                    bad |= report(design, workload,
                                  diff_records(expected, stored),
                                  "campaign")
            if bad or base_bad:
                failed.add((design, workload))
    return failed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perf.reference",
        description="diff scalar- and epoch-engine SimResults per cell")
    parser.add_argument("--designs", nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--requests", type=int, default=60_000)
    parser.add_argument("--warmup", type=int, default=30_000)
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args(argv)
    failed, lines = reference_check(args.designs, args.workloads,
                                    args.requests, args.warmup, args.seed)
    for line in lines:
        print(line)
    cells = len(args.designs) * len(args.workloads)
    print(f"reference: {len(failed)}/{cells} cells differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
