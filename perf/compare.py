"""Compare two sets of benchmark runs.

    python -m perf.compare BASE_DIR CHANGE_DIR

Each directory holds the ``BENCH_perf_*.json`` records that
``python -m perf.run --out DIR`` writes, one per run.  For every
workload and every end-to-end metric of ``BENCHMARK.json`` this prints
both sides' medians and quartiles, the metric's bound, a verdict, and —
with at least ten pairs — the fraction of pairs the change wins; then
whether the results digests agree seed by seed and how
``ops_failed_frac`` moved.  Runs pair up in seed order.

Verdicts follow the rule the benchmark was built for: *worse* when the
change's median is worse by more than the bound; *unresolved* when
either side's quartile spread is wider than the bound (unless every
change run beats every base run); *better* only with ten or more pairs,
a win in at least nine tenths of them, and a median gain larger than
the base's own quartile spread; *unchanged* otherwise.  Exit status 1
when any metric is worse, a digest differs, or more cells fail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from perf import load_benchmark, quartiles

#: Fewest pairs a gain may be claimed on.
MIN_PAIRS = 10

#: Share of pairs the change must win to claim a gain.
MIN_WIN = 0.9


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """workload -> run records of ``directory``, in seed order."""
    runs: dict[str, list] = {}
    for path in sorted(directory.glob("BENCH_perf_*.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda record: record["config"]["seed"])
    return runs


def _spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def win_fraction(base: list[float], change: list[float],
                 better: str) -> float:
    """Share of ``(base, change)`` pairs the change wins; ties count
    for neither side."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    return wins / len(pairs)


def verdict(base: list[float], change: list[float], bound: float,
            better: str) -> str:
    """better / worse / unchanged / unresolved (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    change_median = statistics.median(change)
    worse_by = sign * (change_median - base_median) / abs(base_median)
    if max(_spread(base), _spread(change)) > bound:
        beats_all = all(sign * (c - b) < 0 for c in change for b in base)
        return "better" if beats_all else "unresolved"
    if worse_by > bound:
        return "worse"
    gain = -sign * (change_median - base_median)
    if (min(len(base), len(change)) >= MIN_PAIRS
            and win_fraction(base, change, better) >= MIN_WIN
            and gain > base_q3 - base_q1):
        return "better"
    return "unchanged"


def _digests(records: list[dict]) -> dict[int, set]:
    out: dict[int, set] = {}
    for record in records:
        out.setdefault(record["config"]["seed"], set()).add(
            record["results_digest"])
    return out


def _failed_frac(records: list[dict]) -> float:
    attempted = sum(record["attempted"] for record in records)
    return sum(record["failed"] for record in records) / attempted


def compare(base_dir: Path, change_dir: Path, benchmark: dict) -> int:
    """Print the comparison table; returns the exit status."""
    base_runs, change_runs = load_runs(base_dir), load_runs(change_dir)
    status = 0
    header = (f"{'workload':<14} {'metric':<13} {'base median [q1, q3]':>30}"
              f" {'change median [q1, q3]':>30} {'delta':>8} {'bound':>6} "
              f"{'verdict':<10} pairs  win")
    print(header)
    for workload in [w["name"] for w in benchmark["workloads"]]:
        base, change = base_runs.get(workload), change_runs.get(workload)
        if not base or not change:
            print(f"{workload:<14} (missing runs)")
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            b = [run["metrics"][name] for run in base]
            c = [run["metrics"][name] for run in change]
            bq, cq = quartiles(b), quartiles(c)
            delta = (cq[1] - bq[1]) / abs(bq[1])
            result = verdict(b, c, metric["bound"], metric["better"])
            pairs = min(len(b), len(c))
            win = (f"{win_fraction(b, c, metric['better']):.2f}"
                   if pairs >= MIN_PAIRS else "-")
            print(f"{workload:<14} {name:<13} "
                  f"{bq[1]:>10.4f} [{bq[0]:.4f}, {bq[2]:.4f}]"
                  f" {cq[1]:>10.4f} [{cq[0]:.4f}, {cq[2]:.4f}]"
                  f" {delta:>+8.2%} {metric['bound']:>6.0%} {result:<10} "
                  f"{pairs:>5} {win:>4}")
            if result == "worse":
                status = 1
        base_digests, change_digests = _digests(base), _digests(change)
        common = sorted(base_digests.keys() & change_digests.keys())
        differing = [seed for seed in common
                     if len(base_digests[seed] | change_digests[seed]) > 1]
        if not common:
            digest = "no common seed"
        elif differing:
            digest = f"DIFFER on seeds {differing}"
            status = 1
        else:
            digest = f"match on {len(common)} seed(s)"
        before, after = _failed_frac(base), _failed_frac(change)
        if after > before:
            status = 1
        print(f"{'':<14} results_digest: {digest}; ops_failed_frac "
              f"{before:.4f} -> {after:.4f} ({after - before:+.4f})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perf.compare",
        description="compare two directories of perf.run records")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    return compare(args.base, args.change, load_benchmark())


if __name__ == "__main__":
    sys.exit(main())
