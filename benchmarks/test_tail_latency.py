"""Tail-latency comparison — beyond the paper's mean-IPC lens.

Average IPC hides the latency distribution; tail latency is what
latency-critical co-runners feel.  This bench reports p50/p95/p99 of the
per-request critical-path latency for each design over a latency-
sensitive workload mix.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.designs import registry
from repro.sim import SimulationDriver

DESIGNS = ("No-HBM", "AlloyCache", "Chameleon", "Hybrid2", "Meta-H",
           "Bumblebee")
WORKLOAD = "xalancbmk"  # pointer-chasing, latency-bound


def _percentile(result, percentile):
    """A latency percentile, or None for a run with zero samples.

    ``Histogram.percentile`` raises on an empty histogram (it used to
    silently report the first bucket bound); report surfaces render
    that as ``n/a`` instead of a made-up number.
    """
    try:
        return result.latency_percentile(percentile)
    except ValueError:
        return None


def _cell(value):
    """One report cell: the value, or ``n/a`` for an empty histogram."""
    return f"{value:7.0f}" if value is not None else f"{'n/a':>7}"


def measure(harness):
    driver = SimulationDriver(harness.config.cpu)
    out = {}
    for design in DESIGNS:
        controller = registry.build(
            design, harness.hbm_config, harness.dram_config,
            sram_bytes=harness.config.scale.sram_bytes)
        result = driver.run(controller, harness.trace(WORKLOAD),
                            workload=WORKLOAD,
                            warmup=harness.config.warmup)
        out[design] = {
            "p50": _percentile(result, 50),
            "p95": _percentile(result, 95),
            "p99": _percentile(result, 99),
            "mean": result.avg_latency_ns,
        }
    return out


@pytest.mark.benchmark(group="latency")
def test_tail_latency(benchmark, harness):
    results = benchmark.pedantic(measure, args=(harness,),
                                 rounds=1, iterations=1)
    lines = [f"{'design':>11} {'mean':>7} {'p50<=':>7} {'p95<=':>7} "
             f"{'p99<=':>7}  (ns)"]
    for design, row in results.items():
        lines.append(f"{design:>11} {row['mean']:7.1f} "
                     f"{_cell(row['p50'])} {_cell(row['p95'])} "
                     f"{_cell(row['p99'])}")
    emit(f"Tail latency on {WORKLOAD}", "\n".join(lines),
         data={f"{p}_{design.lower().replace('-', '_')}":
               row[p] for design, row in results.items()
               for p in ("p50", "p95", "p99") if row[p] is not None},
         slug="tail_latency")

    # A measured run always has samples; n/a is for empty histograms.
    assert all(None not in (row["p50"], row["p95"], row["p99"])
               for row in results.values())
    # Bumblebee improves the median against the no-HBM baseline.
    assert results["Bumblebee"]["p50"] <= results["No-HBM"]["p50"]
    # Percentiles are monotone by construction.
    for row in results.values():
        assert row["p50"] <= row["p95"] <= row["p99"]
    # Meta-H's HBM metadata round trip shows up in the median.
    assert results["Meta-H"]["p50"] >= results["Bumblebee"]["p50"]
